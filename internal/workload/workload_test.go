package workload

import (
	"bytes"
	"math"
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
	batch := d.GenBatchWith(rng.New(11), 100)
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

func TestTraceRoundTrip(t *testing.T) {
	tr := &Trace{NumEntries: 100, Batches: [][]int64{{1, 2, 3}, {4}, {}}}
	var buf bytes.Buffer
	if err := tr.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := LoadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumEntries != 100 || len(got.Batches) != 3 {
		t.Fatalf("header %+v", got)
	}
	for i := range tr.Batches {
		if len(got.Batches[i]) != len(tr.Batches[i]) {
			t.Fatalf("batch %d len", i)
		}
		for j := range tr.Batches[i] {
			if got.Batches[i][j] != tr.Batches[i][j] {
				t.Fatalf("batch %d key %d", i, j)
			}
		}
	}
}

func TestTraceRejectsGarbage(t *testing.T) {
	if _, err := LoadTrace(bytes.NewReader([]byte("not a trace at all....."))); err == nil {
		t.Fatal("garbage accepted")
	}
	// Key outside range.
	bad := &Trace{NumEntries: 2, Batches: [][]int64{{5}}}
	var buf bytes.Buffer
	bad.Save(&buf)
	if _, err := LoadTrace(&buf); err == nil {
		t.Fatal("out-of-range key accepted on load")
	}
}

func TestRecord(t *testing.T) {
	i := 0
	tr := Record(10, 3, func() []int64 {
		i++
		return []int64{int64(i)}
	})
	if len(tr.Batches) != 3 || tr.Batches[2][0] != 3 {
		t.Fatalf("record %+v", tr.Batches)
	}
}

func TestDLRDeterminism(t *testing.T) {
	// Two builds from one seed, and two readers of one build, draw the same
	// batch from same-seeded generators: a dataset keeps no stream of its own.
	a, _ := SYNA.Build(0.01, 5)
	b, _ := SYNA.Build(0.01, 5)
	ba, bb, again := a.GenBatchWith(rng.New(5), 10), b.GenBatchWith(rng.New(5), 10), a.GenBatchWith(rng.New(5), 10)
	for i := range ba {
		if ba[i] != bb[i] || ba[i] != again[i] {
			t.Fatalf("batch differs at %d", i)
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
		batchSink = d.GenBatchWith(r, 2048)
	}
}

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
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ProfileBatches(100000, batches); err != nil {
			b.Fatal(err)
		}
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
