package workload

import (
	"encoding/binary"
	"math"
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

// TestRankerMatchesReference checks the packed-key radix ranking against the
// comparator it replaced on vectors built to break it: heavy ties, all-zero
// tails, subnormals, −0 beside +0, MaxFloat64, values one ulp apart, and the
// degenerate lengths. One Ranker serves every vector, so buffer reuse across
// growing and shrinking inputs is covered too.
func TestRankerMatchesReference(t *testing.T) {
	r := rng.New(7)
	negZero := math.Copysign(0, -1)
	special := []float64{0, negZero, math.SmallestNonzeroFloat64, 3 * math.SmallestNonzeroFloat64,
		0x1p-1022, math.Nextafter(0x1p-1022, 0), math.MaxFloat64, math.Nextafter(math.MaxFloat64, 0),
		1, math.Nextafter(1, 0), math.Nextafter(1, 2), 0.5, 0x1p-40, 255, 256, 257}
	vectors := []Hotness{nil, {}, {3}, {negZero}, {1, 2}, {2, 1}, {1, 1}, {0, negZero}, {negZero, 0}, special}
	for trial := 0; trial < 60; trial++ {
		n := 1 + r.Intn(3000)
		h := make(Hotness, n)
		distinct := 1 + r.Intn(1+trial*4) // few distinct values: heavy ties
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
		vectors = append(vectors, h)
	}
	var rk Ranker
	for vi, h := range vectors {
		want := referenceRank(h)
		got := rk.Rank(h)
		if len(got) != len(want) {
			t.Fatalf("vector %d: %d ranks for %d entries", vi, len(got), len(want))
		}
		for i, k := range got {
			if k.Entry != want[i] {
				t.Fatalf("vector %d (n=%d): rank %d is entry %d, reference says %d", vi, len(h), i, k.Entry, want[i])
			}
			if k.Hotness() != h[k.Entry] {
				t.Fatalf("vector %d: rank %d decodes hotness %g, entry has %g", vi, i, k.Hotness(), h[k.Entry])
			}
		}
		for i, e := range h.Rank() {
			if e != want[i] {
				t.Fatalf("vector %d: Hotness.Rank()[%d] = %d, reference says %d", vi, i, e, want[i])
			}
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

// BenchmarkRank times the ranking on the policy solve's scale: 400k distinct
// positive hotness values in scattered order.
func BenchmarkRank(b *testing.B) {
	r := rng.New(3)
	h := make(Hotness, 400_000)
	for i := range h {
		h[i] = math.Ldexp(r.Float64(), -r.Intn(20))
	}
	var rk Ranker
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rankSink = rk.Rank(h)
	}
}
