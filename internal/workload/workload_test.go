package workload

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"ugache/internal/rng"
)

func TestZipfBounds(t *testing.T) {
	z, err := NewZipf(1000, 1.2)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(1)
	for i := 0; i < 10000; i++ {
		v := z.Sample(r)
		if v < 0 || v >= 1000 {
			t.Fatalf("sample %d out of range", v)
		}
	}
}

func TestZipfSkewOrdering(t *testing.T) {
	// Higher alpha concentrates more mass on the head.
	r := rng.New(2)
	share := func(alpha float64) float64 {
		z, _ := NewZipf(100000, alpha)
		top := 0
		const draws = 50000
		for i := 0; i < draws; i++ {
			if z.Sample(r) < 1000 { // top 1%
				top++
			}
		}
		return float64(top) / draws
	}
	s12, s14 := share(1.2), share(1.4)
	if s12 < 0.4 {
		t.Fatalf("alpha=1.2 top-1%% share %g, want heavy head", s12)
	}
	if s14 <= s12 {
		t.Fatalf("alpha=1.4 share %g not above alpha=1.2 share %g", s14, s12)
	}
}

func TestZipfCDFMatchesSamples(t *testing.T) {
	z, _ := NewZipf(10000, 1.2)
	r := rng.New(3)
	const draws = 200000
	hits := 0
	for i := 0; i < draws; i++ {
		if z.Sample(r) < 100 {
			hits++
		}
	}
	want := z.CDF(100)
	got := float64(hits) / draws
	if math.Abs(got-want) > 0.02 {
		t.Fatalf("CDF(100): sampled %g, analytic %g", got, want)
	}
	if z.CDF(0) != 0 || z.CDF(10000) != 1 {
		t.Fatal("CDF endpoints")
	}
}

func TestZipfAlphaOne(t *testing.T) {
	z, err := NewZipf(1000, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(4)
	for i := 0; i < 1000; i++ {
		if v := z.Sample(r); v < 0 || v >= 1000 {
			t.Fatalf("alpha=1 sample %d", v)
		}
	}
}

func TestZipfValidation(t *testing.T) {
	if _, err := NewZipf(0, 1.2); err == nil {
		t.Fatal("n=0 accepted")
	}
	if _, err := NewZipf(10, 0); err == nil {
		t.Fatal("alpha=0 accepted")
	}
	for _, alpha := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := NewZipf(10, alpha); err == nil {
			t.Fatalf("alpha=%v accepted", alpha)
		}
	}
	if _, err := NewZipf(math.MaxInt64, 1.2); err == nil {
		t.Fatal("n=MaxInt64 accepted: n+1 overflows the normaliser")
	}
}

func TestDLRBuildAndBatch(t *testing.T) {
	d, err := CR.Build(0.01, 11)
	if err != nil {
		t.Fatal(err)
	}
	if d.KeysPerSample() != 26 {
		t.Fatalf("keys per sample %d", d.KeysPerSample())
	}
	batch := d.GenBatch(rng.New(11), 100)
	if len(batch) != 2600 {
		t.Fatalf("batch len %d", len(batch))
	}
	n := d.NumEntries()
	for _, k := range batch {
		if k < 0 || k >= n {
			t.Fatalf("key %d outside [0, %d)", k, n)
		}
	}
	// Each sample hits each table exactly once.
	for s := 0; s < 5; s++ {
		for ti := 0; ti < 26; ti++ {
			k := batch[s*26+ti]
			tab, _, err := d.MT.Locate(k)
			if err != nil || tab != ti {
				t.Fatalf("sample %d slot %d in table %d", s, ti, tab)
			}
		}
	}
}

func TestDLRSpecShapes(t *testing.T) {
	if len(CR.TableSizes) != 26 || len(SYNA.TableSizes) != 100 || len(SYNB.TableSizes) != 100 {
		t.Fatal("table counts wrong")
	}
	// Criteo sizes must be heavily spread: largest / smallest > 100.
	max, min := int64(0), int64(1<<62)
	for _, s := range CR.TableSizes {
		if s > max {
			max = s
		}
		if s < min {
			min = s
		}
	}
	if max/min < 100 {
		t.Fatalf("criteo size spread %d/%d too flat", max, min)
	}
	if SYNB.Alpha <= SYNA.Alpha {
		t.Fatal("SYN-B must be more skewed than SYN-A")
	}
	if len(DLRDatasets) != 3 {
		t.Fatal("registry size")
	}
	if s, err := DLRSpecByName("SYN-B"); err != nil || s.Alpha != SYNB.Alpha {
		t.Fatalf("DLRSpecByName(SYN-B) = %+v, %v", s, err)
	}
	if _, err := DLRSpecByName("SYN-C"); err == nil {
		t.Fatal("DLRSpecByName accepted SYN-C")
	}
	for _, scale := range []float64{0, math.NaN(), math.Inf(1), math.Inf(-1), 1e300} {
		if _, err := CR.Build(scale, 1); err == nil {
			t.Fatalf("scale %v accepted", scale)
		}
	}
	if _, err := (DLRSpec{Name: "x", TableSizes: []int64{100}, Alpha: math.NaN()}).Build(1, 1); err == nil {
		t.Fatal("NaN alpha accepted")
	}
	if _, err := (DLRSpec{Name: "x"}).Build(1, 1); err == nil {
		t.Fatal("empty spec accepted")
	}
}

func TestUnique(t *testing.T) {
	keys := []int64{5, 3, 5, 7, 3, 5}
	got := Unique(keys, nil)
	want := []int64{5, 3, 7}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	// Scratch reuse.
	scratch := make(map[int64]struct{})
	Unique(keys, scratch)
	got2 := Unique([]int64{1, 1, 2}, scratch)
	if len(got2) != 2 {
		t.Fatalf("scratch reuse broke dedup: %v", got2)
	}
}

func TestProfileBatches(t *testing.T) {
	batches := [][]int64{{0, 1, 1}, {1, 2, 1}}
	h, err := ProfileBatches(4, batches)
	if err != nil {
		t.Fatal(err)
	}
	// Presence counting: duplicates within a batch count once. Entry 3 was
	// never seen: Good–Turing gives it the once-seen mass (entries 0 and 2,
	// each seen once => unseen mass 2/2 = 1) spread over 1 unseen entry —
	// which used to be pinned here as hotness 1, twice what the two entries
	// seen once have. The estimate is held to what one sighting counts for.
	want := Hotness{0.5, 1, 0.5, 0.5}
	for i := range want {
		if math.Abs(h[i]-want[i]) > 1e-12 {
			t.Fatalf("h[%d] = %g, want %g", i, h[i], want[i])
		}
	}
	if _, err := ProfileBatches(2, [][]int64{{5}}); err == nil {
		t.Fatal("out-of-range key accepted")
	}
	if _, err := ProfileBatches(0, batches); err == nil {
		t.Fatal("zero entries accepted")
	}
	if _, err := ProfileBatches(4, nil); err == nil {
		t.Fatal("no batches accepted")
	}
}

func TestHotnessRankAndTopShare(t *testing.T) {
	h := Hotness{1, 9, 3, 3}
	rank := h.Rank()
	if rank[0] != 1 {
		t.Fatalf("rank %v", rank)
	}
	// Ties broken by index: 2 before 3.
	if rank[1] != 2 || rank[2] != 3 || rank[3] != 0 {
		t.Fatalf("rank %v", rank)
	}
	if got := h.TopShare(0.25); math.Abs(got-9.0/16) > 1e-12 {
		t.Fatalf("TopShare %g", got)
	}
}

func TestDegreeHotness(t *testing.T) {
	h := DegreeHotness([]int64{1, 3, 0}, 8)
	if math.Abs(h.Total()-8) > 1e-12 {
		t.Fatalf("Total %g", h.Total())
	}
	if h[1] <= h[0] || h[2] != 0 {
		t.Fatalf("ordering %v", h)
	}
	if z := DegreeHotness([]int64{0, 0}, 8); z.Total() != 0 {
		t.Fatal("zero degrees")
	}
}

func TestDLRDeterminism(t *testing.T) {
	// Two builds from one seed, and two readers of one build, draw the same
	// batch from same-seeded generators: a dataset keeps no stream of its own.
	a, _ := SYNA.Build(0.01, 5)
	b, _ := SYNA.Build(0.01, 5)
	ba, bb, again := a.GenBatch(rng.New(5), 10), b.GenBatch(rng.New(5), 10), a.GenBatch(rng.New(5), 10)
	for i := range ba {
		if ba[i] != bb[i] || ba[i] != again[i] {
			t.Fatalf("batch differs at %d", i)
		}
	}
}

// referenceBatch is GenBatch as one loop: one key at a time, sample
// then table, each drawn straight from r.
func referenceBatch(d *DLRDataset, r *rng.Rand, batchSize int) []int64 {
	keys := make([]int64, 0, batchSize*len(d.zipfs))
	for s := 0; s < batchSize; s++ {
		for t, z := range d.zipfs {
			keys = append(keys, d.MT.Offset(t)+z.Sample(r))
		}
	}
	return keys
}

// TestGenBatchMatchesReference: drawing a batch's uniforms in chunks and
// ranking each chunk on a goroutine of its own as soon as it is drawn gives
// the same keys as the one-key-at-a-time loop, and leaves the generator where
// that loop leaves it, at any parallelism and batch size — batches too small
// to split into two chunks (five samples, and 200 of CR's 26 keys), exactly
// two of CR's chunks (316 samples), and a warm batch whose last chunk is
// short.
func TestGenBatchMatchesReference(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, spec := range DLRDatasets {
		d, err := spec.Build(0.05, 42)
		if err != nil {
			t.Fatal(err)
		}
		for _, procs := range []int{1, 2, 3, 7} {
			runtime.GOMAXPROCS(procs)
			for _, size := range []int{0, 1, 5, 200, 316, 2048} {
				want, got := rng.New(7), rng.New(7)
				for call := range 4 {
					w, g := referenceBatch(d, want, size), d.GenBatch(got, size)
					if !slices.Equal(w, g) {
						t.Fatalf("%s procs %d batch %d call %d: keys differ from the one-at-a-time loop", spec.Name, procs, size, call)
					}
				}
				if w, g := want.Uint64(), got.Uint64(); w != g {
					t.Fatalf("%s procs %d batch %d: generator continues with %#x, the loop's with %#x", spec.Name, procs, size, g, w)
				}
			}
		}
	}
}

func BenchmarkZipfSample(b *testing.B) {
	z, _ := NewZipf(1_000_000, 1.2)
	r := rng.New(1)
	var sink int64
	for i := 0; i < b.N; i++ {
		sink += z.Sample(r)
	}
	_ = sink
}

var batchSink []int64

// BenchmarkGenBatch draws one warm batch of the benchmark's train-extract
// set-up: 2,048 samples of one key from each of CR's 26 tables at scale 0.05.
func BenchmarkGenBatch(b *testing.B) {
	d, err := CR.Build(0.05, 42)
	if err != nil {
		b.Fatal(err)
	}
	r := rng.New(42)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batchSink = d.GenBatch(r, 2048)
	}
}

// BenchmarkProfileBatches profiles presence counts into hotness: zipf is
// 16 batches of 50,000 draws over 100,000 entries, train the benchmark's
// train-extract presampling, 96 warm batches of 53,248 keys (2,048 samples of
// CR's 26 tables at scale 0.05) over its 441,337 entries.
func BenchmarkProfileBatches(b *testing.B) {
	z, _ := NewZipf(100000, 1.2)
	r := rng.New(1)
	batches := make([][]int64, 16)
	for i := range batches {
		keys := make([]int64, 50000)
		for j := range keys {
			keys[j] = z.Sample(r)
		}
		batches[i] = keys
	}
	d, err := CR.Build(0.05, 42)
	if err != nil {
		b.Fatal(err)
	}
	warm := make([][]int64, 96)
	wr := rng.New(42).Split("train-warm")
	for i := range warm {
		warm[i] = d.GenBatch(wr, 2048)
	}
	for _, c := range []struct {
		name    string
		entries int64
		batches [][]int64
	}{
		{"zipf", 100000, batches},
		{"train", d.NumEntries(), warm},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := ProfileBatches(c.entries, c.batches); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestProfileBatchesMatchesSetReference checks the stamp-array dedupe against
// the per-batch set it replaced, count for count, on random batches full of
// duplicates (within a batch and across batches, empty batches included),
// that ProfileBatches is the estimate of exactly those counts, and that a key
// outside the table is still refused wherever it sits. (It compared hotness
// against a copy of the old smoothing until the estimator changed; the
// dedupe it is about produces counts.)
func TestProfileBatchesMatchesSetReference(t *testing.T) {
	r := rng.New(19)
	for trial := 0; trial < 40; trial++ {
		n := int64(1 + r.Intn(300))
		batches := make([][]int64, 1+r.Intn(12))
		for i := range batches {
			keys := make([]int64, r.Intn(4*int(n)))
			hot := 1 + r.Intn(int(n)) // draw from a prefix: more duplicates
			for j := range keys {
				keys[j] = int64(r.Intn(hot))
			}
			batches[i] = keys
		}
		want := make([]uint32, n)
		for _, b := range batches {
			seen := make(map[int64]struct{})
			for _, k := range b {
				if _, dup := seen[k]; !dup {
					seen[k] = struct{}{}
					want[k]++
				}
			}
		}
		got, err := countPresence(n, batches)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("trial %d: key %d counted in %d batches, set reference says %d", trial, k, got[k], want[k])
			}
		}
		h, err := ProfileBatches(n, batches)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for k, v := range estimate(want, len(batches)) {
			if h[k] != v {
				t.Fatalf("trial %d: hotness[%d] = %v, the estimate of the reference counts is %v", trial, k, h[k], v)
			}
		}
		for _, bad := range []int64{-1, n, n + 7} {
			last := len(batches) - 1
			spoiled := append(append([][]int64(nil), batches[:last]...), append(append([]int64(nil), batches[last]...), bad))
			if _, err := ProfileBatches(n, spoiled); err == nil {
				t.Fatalf("trial %d: key %d outside [0, %d) accepted", trial, bad, n)
			}
		}
	}
}

// referencePresence counts, per key, the batches holding it, with one
// cleared seen-set per batch.
func referencePresence(n int64, batches [][]int64) []uint32 {
	counts := make([]uint32, n)
	seen := make([]bool, n)
	for _, b := range batches {
		clear(seen)
		for _, k := range b {
			if !seen[k] {
				seen[k] = true
				counts[k]++
			}
		}
	}
	return counts
}

// TestCountPresenceAtAnyWorkerCount: counting presence on GOMAXPROCS workers
// (each over a contiguous range of batches, the counts summed over key
// ranges) gives the sequential reference's counts and hotness at 1, 2 and 3
// processors, on batches large enough that every processor gets a range and
// with empty batches inside and at the end; and a key outside the table fails
// the profile with the first such key in batch order wherever the ranges
// fall — in a later batch of the same range, in a later range, and twice in
// one batch.
func TestCountPresenceAtAnyWorkerCount(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	const n = 5000
	z, _ := NewZipf(n, 1.1)
	r := rng.New(23)
	batches := make([][]int64, 12)
	for i := range batches {
		if i == 4 || i == len(batches)-1 {
			continue // empty
		}
		keys := make([]int64, 100_000)
		for j := range keys {
			keys[j] = z.Sample(r)
		}
		batches[i] = keys
	}
	want := referencePresence(n, batches)
	wantHot := estimate(want, len(batches))
	spoil := func(at map[[2]int]int64) [][]int64 {
		out := slices.Clone(batches)
		for pos, k := range at {
			out[pos[0]] = slices.Clone(out[pos[0]])
			out[pos[0]][pos[1]] = k
		}
		return out
	}
	bad := []struct {
		batches [][]int64
		first   int64
	}{
		{spoil(map[[2]int]int64{{9, 70_000}: n}), n},
		{spoil(map[[2]int]int64{{2, 90_000}: -1, {3, 5}: n + 1, {10, 0}: n + 2}), -1},
		{spoil(map[[2]int]int64{{6, 99_999}: n + 3, {8, 1}: -2}), n + 3},
		{spoil(map[[2]int]int64{{7, 40}: -3, {7, 20}: n + 4}), n + 4},
	}
	for _, procs := range []int{1, 2, 3} {
		runtime.GOMAXPROCS(procs)
		got, err := countPresence(n, batches)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("GOMAXPROCS %d: counts differ from the sequential reference", procs)
		}
		h, err := ProfileBatches(n, batches)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(h, wantHot) {
			t.Fatalf("GOMAXPROCS %d: hotness differs from the estimate of the reference counts", procs)
		}
		for i, c := range bad {
			_, err := ProfileBatches(n, c.batches)
			if wantErr := fmt.Sprintf("workload: key %d outside [0, %d)", c.first, n); err == nil || err.Error() != wantErr {
				t.Fatalf("GOMAXPROCS %d, spoiled input %d: error %v, want %q", procs, i, err, wantErr)
			}
		}
	}
}

// TestDLRBuildAtAnyWorkerCount: building the tables and samplers on several
// goroutines gives the one-goroutine build's tables and guides, and the first
// failing table, in table order, names the error.
func TestDLRBuildAtAnyWorkerCount(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	build := func(spec DLRSpec, procs int) (*DLRDataset, error) {
		runtime.GOMAXPROCS(procs)
		return spec.Build(0.05, 42)
	}
	for _, spec := range DLRDatasets {
		one, err := build(spec, 1)
		if err != nil {
			t.Fatal(err)
		}
		three, err := build(spec, 3)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(one, three) {
			t.Fatalf("%s: the build on 3 processors differs from the build on 1", spec.Name)
		}
	}
	spoiled := CR
	spoiled.TableSizes = slices.Clone(CR.TableSizes)
	spoiled.TableSizes[9], spoiled.TableSizes[20] = math.MaxInt64, math.MaxInt64
	for _, procs := range []int{1, 3} {
		runtime.GOMAXPROCS(procs)
		_, err := spoiled.Build(2, 42)
		if err == nil || !strings.Contains(err.Error(), "table 9 ") {
			t.Fatalf("GOMAXPROCS %d: error %v, want table 9's", procs, err)
		}
	}
}
