package workload

import (
	"encoding/binary"
	"math"
	"runtime"
	"sort"
	"testing"

	"ugache/internal/rng"
)

// referenceRank is the ranking's definition: entries by (−hotness, index).
func referenceRank(h Hotness) []int64 {
	idx := make([]int64, len(h))
	for i := range idx {
		idx[i] = int64(i)
	}
	sort.Slice(idx, func(i, j int) bool {
		a, b := idx[i], idx[j]
		if h[a] != h[b] {
			return h[a] > h[b]
		}
		return a < b
	})
	return idx
}

// TestRankerMatchesReference checks the bucketed radix ranking against the
// comparator it replaced on vectors built to break it: heavy ties, all-zero
// tails, subnormals, −0 beside +0, MaxFloat64, values one ulp apart, and the
// degenerate lengths; and on vectors long enough to split over several
// workers (all-equal, all-zero with −0, tie-heavy, subnormal-heavy, distinct).
// Every vector is ranked at GOMAXPROCS 1 and 3, by one Ranker, so buffer reuse
// across growing and shrinking inputs and worker counts is covered too.
func TestRankerMatchesReference(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	r := rng.New(7)
	negZero := math.Copysign(0, -1)
	special := []float64{0, negZero, math.SmallestNonzeroFloat64, 3 * math.SmallestNonzeroFloat64,
		0x1p-1022, math.Nextafter(0x1p-1022, 0), math.MaxFloat64, math.Nextafter(math.MaxFloat64, 0),
		1, math.Nextafter(1, 0), math.Nextafter(1, 2), 0.5, 0x1p-40, 255, 256, 257}
	vectors := []Hotness{nil, {}, {3}, {negZero}, {1, 2}, {2, 1}, {1, 1}, {0, negZero}, {negZero, 0}, special}
	mixed := func(n, distinct int) Hotness {
		h := make(Hotness, n)
		for i := range h {
			switch r.Intn(6) {
			case 0:
				h[i] = special[r.Intn(len(special))]
			case 1:
				h[i] = math.Ldexp(r.Float64(), -r.Intn(1070)) // down into subnormals
			default:
				h[i] = float64(1+r.Intn(distinct)) / 96
			}
		}
		for i := n - r.Intn(n+1); i < n; i++ {
			h[i] = 0 // all-zero tail
		}
		return h
	}
	for trial := 0; trial < 60; trial++ {
		vectors = append(vectors, mixed(1+r.Intn(3000), 1+r.Intn(1+trial*4))) // few distinct values: heavy ties
	}
	const long = 4*rankMinPerWorker + 17 // enough for four workers, split unevenly
	allEqual, zeros, distinct, subnormal := make(Hotness, long), make(Hotness, long), make(Hotness, long), make(Hotness, long)
	for i := range allEqual {
		allEqual[i] = 0.25
		if r.Intn(2) == 0 {
			zeros[i] = negZero
		}
		distinct[i] = math.Ldexp(r.Float64(), -r.Intn(40))
		subnormal[i] = math.Ldexp(float64(r.Intn(64)), -1074) // 64 subnormals and 0
	}
	vectors = append(vectors, allEqual, zeros, distinct, subnormal, mixed(long, 200), mixed(long, 20_000))
	var rk Ranker
	for vi, h := range vectors {
		want := referenceRank(h)
		for _, procs := range []int{1, 3} {
			runtime.GOMAXPROCS(procs)
			got := rk.Rank(h)
			if len(got) != len(want) {
				t.Fatalf("vector %d: %d ranks for %d entries", vi, len(got), len(want))
			}
			for i, k := range got {
				if k.Entry != want[i] {
					t.Fatalf("GOMAXPROCS %d, vector %d (n=%d): rank %d is entry %d, reference says %d", procs, vi, len(h), i, k.Entry, want[i])
				}
				if k.Hotness() != h[k.Entry] {
					t.Fatalf("vector %d: rank %d decodes hotness %g, entry has %g", vi, i, k.Hotness(), h[k.Entry])
				}
			}
		}
		for i, e := range h.Rank() {
			if e != want[i] {
				t.Fatalf("vector %d: Hotness.Rank()[%d] = %d, reference says %d", vi, i, e, want[i])
			}
		}
	}
}

// TestRankAllocations holds the ranking to its allocation budget on a vector
// long enough for three workers: none on one processor once the Ranker has
// its buffers, and on w processors, per extra worker and each of the four
// passes, its goroutine's closure and, when the runtime has no spare, the
// goroutine itself — at most 8(w−1). (testing.AllocsPerRun runs on one
// processor, so the parallel count reads the heap's counter around the calls
// itself.)
func TestRankAllocations(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	r := rng.New(11)
	h := make(Hotness, 3*rankMinPerWorker)
	for i := range h {
		h[i] = math.Ldexp(r.Float64(), -r.Intn(20))
	}
	var rk Ranker
	if n := testing.AllocsPerRun(20, func() { rk.Rank(h) }); n != 0 {
		t.Errorf("GOMAXPROCS 1: Rank allocates %.1f times, budget 0", n)
	}
	for _, procs := range []int{2, 3} {
		runtime.GOMAXPROCS(procs)
		rk.Rank(h) // the extra workers' scratch
		const runs = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			rk.Rank(h)
		}
		runtime.ReadMemStats(&after)
		if n, budget := float64(after.Mallocs-before.Mallocs)/runs, 8*(procs-1); n > float64(budget) {
			t.Errorf("GOMAXPROCS %d: Rank allocates %.1f times, budget %d", procs, n, budget)
		}
	}
}

// FuzzRanker checks Ranker.Rank against sort.SliceStable over the entry
// indices by descending hotness — ties, −0 with +0 among them, keep ascending
// index. The raw bytes decode into a non-negative finite vector: an even tag
// byte picks a value from a small palette (so ties are common), an odd one
// takes the next eight bytes as a float's bits, sign cleared, non-finite
// folded to MaxFloat64. One Ranker ranks the vector and then its first cut
// entries, so a reused Ranker is handed a longer vector and then a shorter
// one.
func FuzzRanker(f *testing.F) {
	negZero := math.Copysign(0, -1)
	palette := []float64{0, negZero, 1, 0.5, math.SmallestNonzeroFloat64, math.MaxFloat64,
		math.Nextafter(1, 2), 0x1p-1022, 255, 256}
	f.Fuzz(func(t *testing.T, cut byte, raw []byte) {
		var h Hotness
		for len(raw) > 0 {
			tag := raw[0]
			raw = raw[1:]
			if tag%2 == 0 || len(raw) < 8 {
				h = append(h, palette[int(tag/2)%len(palette)])
				continue
			}
			v := math.Float64frombits(binary.LittleEndian.Uint64(raw) &^ (1 << 63))
			raw = raw[8:]
			if math.IsNaN(v) || math.IsInf(v, 1) {
				v = math.MaxFloat64
			}
			h = append(h, v)
		}
		var rk Ranker
		for _, v := range []Hotness{h, h[:int(cut)%(len(h)+1)]} {
			want := make([]int64, len(v))
			for i := range want {
				want[i] = int64(i)
			}
			sort.SliceStable(want, func(i, j int) bool { return v[want[i]] > v[want[j]] })
			got := rk.Rank(v)
			if len(got) != len(want) {
				t.Fatalf("%d ranks for %d entries", len(got), len(want))
			}
			for i, k := range got {
				if k.Entry != want[i] || k.Hotness() != v[k.Entry] {
					t.Fatalf("n=%d: rank %d is entry %d (hotness %g), sort.SliceStable says %d (%g)",
						len(v), i, k.Entry, k.Hotness(), want[i], v[want[i]])
				}
			}
		}
	})
}

var rankSink []RankedEntry

// servingHotness is the serving workloads' hotness vector, as the solver's
// golden inputs build it: 400k Zipf(1.2) ranks scattered over the key space
// by a seeded permutation, each key carrying its expected per-batch presence
// 1-(1-p)^8192 — 400k distinct values.
func servingHotness(tb testing.TB) Hotness {
	tb.Helper()
	const n = 400_000
	z, err := NewZipf(n, 1.2)
	if err != nil {
		tb.Fatal(err)
	}
	perm := rng.New(42).Split("key-permutation").Perm(n)
	h := make(Hotness, n)
	for r := int64(0); r < n; r++ {
		p := z.CDF(r+1) - z.CDF(r)
		h[perm[r]] = -math.Expm1(8192 * math.Log1p(-p))
	}
	return h
}

// trainHotness is train-extract's profile: CR at scale 0.05 presampled over
// 96 warm batches of 2048 samples — a few hundred distinct values over
// ~440k entries, so nearly every entry ties with thousands of others.
func trainHotness(tb testing.TB) Hotness {
	tb.Helper()
	ds, err := CR.Build(0.05, 42)
	if err != nil {
		tb.Fatal(err)
	}
	r := rng.New(42).Split("train-warm")
	warm := make([][]int64, 96)
	for i := range warm {
		warm[i] = ds.GenBatch(r, 2048)
	}
	h, err := ProfileBatches(ds.NumEntries(), warm)
	if err != nil {
		tb.Fatal(err)
	}
	return h
}

// BenchmarkRank times the ranking on the policy solve's scale: noise is 400k
// distinct positive values in scattered order; serving and train are the two
// vectors the shipped solves rank (servingHotness, trainHotness).
func BenchmarkRank(b *testing.B) {
	r := rng.New(3)
	noise := make(Hotness, 400_000)
	for i := range noise {
		noise[i] = math.Ldexp(r.Float64(), -r.Intn(20))
	}
	for _, bc := range []struct {
		name string
		h    func(testing.TB) Hotness
	}{
		{"noise", func(testing.TB) Hotness { return noise }},
		{"serving", servingHotness},
		{"train", trainHotness},
	} {
		b.Run(bc.name, func(b *testing.B) {
			h := bc.h(b)
			var rk Ranker
			rk.Rank(h)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rankSink = rk.Rank(h)
			}
		})
	}
}
