package graph

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"ugache/internal/rng"
)

// validateCSR checks a generated graph's structural invariants.
func validateCSR(g *CSR) error {
	if len(g.IndPtr) < 1 {
		return fmt.Errorf("graph: empty IndPtr")
	}
	if g.IndPtr[0] != 0 {
		return fmt.Errorf("graph: IndPtr[0] = %d", g.IndPtr[0])
	}
	n := int32(g.NumNodes())
	for v := 0; v < int(n); v++ {
		if g.IndPtr[v+1] < g.IndPtr[v] {
			return fmt.Errorf("graph: IndPtr decreases at %d", v)
		}
	}
	if g.IndPtr[n] != int64(len(g.Indices)) {
		return fmt.Errorf("graph: IndPtr tail %d != len(Indices) %d", g.IndPtr[n], len(g.Indices))
	}
	for i, t := range g.Indices {
		if t < 0 || t >= n {
			return fmt.Errorf("graph: edge %d targets %d outside [0, %d)", i, t, n)
		}
	}
	return nil
}

func testGraph(t *testing.T, n int, avg, gamma float64) *CSR {
	t.Helper()
	g, err := genPowerLaw(n, avg, gamma, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := validateCSR(g); err != nil {
		t.Fatal(err)
	}
	return g
}

func TestGenPowerLawBasics(t *testing.T) {
	const n = 20000
	g := testGraph(t, n, 10, 2.3)
	if g.NumNodes() != n {
		t.Fatalf("NumNodes = %d", g.NumNodes())
	}
	avg := float64(g.NumEdges()) / float64(n)
	if avg < 7 || avg > 14 {
		t.Fatalf("avg degree %g, want ~10", avg)
	}
}

func TestGenPowerLawSkew(t *testing.T) {
	// Degree must be heavily skewed: the top 1% of nodes should hold a
	// disproportionate share of edges, and in-degree (target popularity)
	// must concentrate on low IDs.
	const n = 50000
	g := testGraph(t, n, 10, 2.2)
	topOut := int64(0)
	for v := 0; v < n/100; v++ {
		topOut += int64(len(g.neighbors(int32(v))))
	}
	if frac := float64(topOut) / float64(g.NumEdges()); frac < 0.10 {
		t.Fatalf("top-1%% out-degree share %g, want >= 0.10", frac)
	}
	indeg := make([]int64, n)
	for _, tgt := range g.Indices {
		indeg[tgt]++
	}
	topIn := int64(0)
	for v := 0; v < n/100; v++ {
		topIn += indeg[v]
	}
	if frac := float64(topIn) / float64(g.NumEdges()); frac < 0.15 {
		t.Fatalf("top-1%% in-degree share %g, want >= 0.15", frac)
	}
}

func TestGenPowerLawDeterminism(t *testing.T) {
	a, _ := genPowerLaw(5000, 8, 2.5, rng.New(7))
	b, _ := genPowerLaw(5000, 8, 2.5, rng.New(7))
	if a.NumEdges() != b.NumEdges() {
		t.Fatal("edge counts differ")
	}
	for i := range a.Indices {
		if a.Indices[i] != b.Indices[i] {
			t.Fatalf("edge %d differs", i)
		}
	}
}

func TestGenPowerLawValidation(t *testing.T) {
	r := rng.New(1)
	if _, err := genPowerLaw(0, 10, 2.5, r); err == nil {
		t.Fatal("n=0 accepted")
	}
	if _, err := genPowerLaw(10, 0, 2.5, r); err == nil {
		t.Fatal("avgDeg=0 accepted")
	}
	if _, err := genPowerLaw(10, 5, 2.0, r); err == nil {
		t.Fatal("gamma=2 accepted")
	}
}

func TestNoSelfLoops(t *testing.T) {
	g := testGraph(t, 3000, 6, 2.4)
	for v := int32(0); int(v) < g.NumNodes(); v++ {
		for _, tgt := range g.neighbors(v) {
			if tgt == v {
				t.Fatalf("self loop at %d", v)
			}
		}
	}
}

func TestTrainSet(t *testing.T) {
	r := rng.New(3)
	train := trainSet(10000, 0.01, r)
	if len(train) != 100 {
		t.Fatalf("train size %d", len(train))
	}
	seen := map[int32]bool{}
	for _, v := range train {
		if v < 0 || v >= 10000 {
			t.Fatalf("train node %d out of range", v)
		}
		if seen[v] {
			t.Fatalf("duplicate train node %d", v)
		}
		seen[v] = true
	}
	// Bad fraction falls back to 1%.
	if got := trainSet(1000, -1, rng.New(4)); len(got) != 10 {
		t.Fatalf("fallback train size %d", len(got))
	}
	// Train nodes should be spread over the ID range, not clustered.
	sorted := make([]int32, len(train))
	copy(sorted, train)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	if sorted[0] > 2000 || sorted[len(sorted)-1] < 8000 {
		t.Fatalf("train set not spread: [%d, %d]", sorted[0], sorted[len(sorted)-1])
	}
}

func TestSamplerUniqueAndSeedsIncluded(t *testing.T) {
	g := testGraph(t, 10000, 10, 2.3)
	s, err := NewSampler(g, []int{5, 3}, 0, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	seeds := []int32{1, 2, 3, 4, 5, 1} // duplicate seed on purpose
	out := s.SampleBatch(seeds)
	seen := map[int32]bool{}
	for _, v := range out {
		if seen[v] {
			t.Fatalf("duplicate node %d in batch", v)
		}
		seen[v] = true
	}
	for _, v := range seeds {
		if !seen[v] {
			t.Fatalf("seed %d missing from batch", v)
		}
	}
	// 2-hop with fanouts 5,3: per seed at most 1 + 5 + 15 nodes.
	if len(out) > 5*21 {
		t.Fatalf("batch too large: %d", len(out))
	}
	if len(out) <= len(seeds) {
		t.Fatal("sampler expanded nothing")
	}
}

func TestSamplerSkewedAccess(t *testing.T) {
	// Sampled batches must access low-ID (high in-degree) nodes far more
	// often — the skew that motivates caching (paper §2).
	const n = 20000
	g := testGraph(t, n, 12, 2.2)
	r := rng.New(5)
	s, _ := NewSampler(g, []int{10, 5}, 0, r.Split("sampler"))
	counts := make([]int64, n)
	tr := trainSet(n, 0.05, r.Split("train"))
	for _, batch := range EpochBatches(tr, 100, r.Split("epoch")) {
		for _, v := range s.SampleBatch(batch) {
			counts[v]++
		}
	}
	var top, total int64
	for v := 0; v < n; v++ {
		if v < n/10 {
			top += counts[v]
		}
		total += counts[v]
	}
	if frac := float64(top) / float64(total); frac < 0.4 {
		t.Fatalf("top-10%% access share %g, want >= 0.4", frac)
	}
}

func TestSamplerNegativeReducesSkew(t *testing.T) {
	const n = 20000
	g := testGraph(t, n, 12, 2.2)
	measure := func(neg int) float64 {
		r := rng.New(5)
		s, _ := NewSampler(g, []int{10, 5}, neg, r.Split("sampler"))
		counts := make([]int64, n)
		tr := trainSet(n, 0.05, r.Split("train"))
		for _, batch := range EpochBatches(tr, 100, r.Split("epoch")) {
			for _, v := range s.SampleBatch(batch) {
				counts[v]++
			}
		}
		var top, total int64
		for v := 0; v < n; v++ {
			if v < n/10 {
				top += counts[v]
			}
			total += counts[v]
		}
		return float64(top) / float64(total)
	}
	sup, unsup := measure(0), measure(3)
	if unsup >= sup {
		t.Fatalf("negative sampling should reduce skew: sup %g, unsup %g", sup, unsup)
	}
}

func TestSamplerValidation(t *testing.T) {
	g := testGraph(t, 100, 4, 2.5)
	r := rng.New(1)
	if _, err := NewSampler(nil, []int{2}, 0, r); err == nil {
		t.Fatal("nil graph accepted")
	}
	if _, err := NewSampler(g, nil, 0, r); err == nil {
		t.Fatal("no fanouts accepted")
	}
	if _, err := NewSampler(g, []int{0}, 0, r); err == nil {
		t.Fatal("zero fanout accepted")
	}
	if _, err := NewSampler(g, []int{2}, -1, r); err == nil {
		t.Fatal("negative negatives accepted")
	}
}

func TestEpochBatches(t *testing.T) {
	train := make([]int32, 105)
	for i := range train {
		train[i] = int32(i)
	}
	batches := EpochBatches(train, 25, rng.New(2))
	if len(batches) != 5 {
		t.Fatalf("batches %d", len(batches))
	}
	total := 0
	seen := map[int32]bool{}
	for _, b := range batches {
		total += len(b)
		for _, v := range b {
			seen[v] = true
		}
	}
	if total != 105 || len(seen) != 105 {
		t.Fatalf("coverage %d/%d", total, len(seen))
	}
	if len(batches[4]) != 5 {
		t.Fatalf("last batch %d", len(batches[4]))
	}
}

func TestDatasetBuild(t *testing.T) {
	d, err := PA.Build(0.01, 42) // ~11k nodes
	if err != nil {
		t.Fatal(err)
	}
	if err := validateCSR(d.G); err != nil {
		t.Fatal(err)
	}
	if d.G.NumNodes() < 10000 {
		t.Fatalf("nodes %d", d.G.NumNodes())
	}
	if d.Table.Dim != 128 {
		t.Fatalf("dim %d", d.Table.Dim)
	}
	if int(d.Table.NumEntries) != d.G.NumNodes() {
		t.Fatal("table size mismatch")
	}
	wantTrain := int(float64(d.G.NumNodes()) * PA.TrainFrac)
	if math.Abs(float64(len(d.Train)-wantTrain)) > 1 {
		t.Fatalf("train size %d, want ~%d", len(d.Train), wantTrain)
	}
	if d.VolumeE() <= 0 || d.VolumeG() <= 0 {
		t.Fatal("volumes must be positive")
	}
	if _, err := PA.Build(-1, 42); err == nil {
		t.Fatal("negative scale accepted")
	}
}

func TestDatasetSpecsDistinct(t *testing.T) {
	// MAG is float16 (Table 3 note) and the largest.
	if MAG.DType != PA.DType && MAG.Dim == 768 {
		// expected
	} else {
		t.Fatal("MAG spec wrong")
	}
	if len(GNNDatasets) != 3 {
		t.Fatal("dataset registry size")
	}
}

func BenchmarkGenPowerLaw(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := genPowerLaw(100000, 12, 2.2, rng.New(uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSampleBatch(b *testing.B) {
	g, err := genPowerLaw(100000, 12, 2.2, rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	s, _ := NewSampler(g, []int{25, 10}, 0, rng.New(2))
	seeds := make([]int32, 2048)
	for i := range seeds {
		seeds[i] = int32(i * 13)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.SampleBatch(seeds)
	}
}
