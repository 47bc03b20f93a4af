package extract

import (
	"encoding/json"
	"math"
	"runtime"
	"testing"

	"ugache/internal/platform"
	"ugache/internal/solver"
)

// resultBytes serializes a Result for byte-identical comparison.
func resultBytes(t *testing.T, r *Result) []byte {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestParallelGroupingGolden is the determinism contract of the parallel
// per-GPU planning pool: forcing the parallel path must produce a Result
// byte-identical to the forced-sequential path, for every mechanism.
func TestParallelGroupingGolden(t *testing.T) {
	p := platform.ServerC()
	pl, _ := buildPlacement(t, p, 20000, 0.08, solver.UGache{})
	ex, err := New(p, pl)
	if err != nil {
		t.Fatal(err)
	}
	b := genBatch(t, 20000, 6000, p.N, 5)
	old := groupParallelThreshold
	defer func() { groupParallelThreshold = old }()
	for _, m := range []Mechanism{Factored, FactoredStatic, PeerRandom, MessageBased} {
		groupParallelThreshold = math.MaxInt // force sequential
		seq, err := ex.Run(m, b, nil)
		if err != nil {
			t.Fatalf("%s sequential: %v", m, err)
		}
		groupParallelThreshold = 0 // force parallel
		par, err := ex.Run(m, b, nil)
		if err != nil {
			t.Fatalf("%s parallel: %v", m, err)
		}
		if s, pr := resultBytes(t, seq), resultBytes(t, par); string(s) != string(pr) {
			t.Fatalf("%s: parallel grouping result differs from sequential\nseq: %.200s\npar: %.200s", m, s, pr)
		}
	}
}

// TestParallelGroupingKeyError checks the parallel path reports
// out-of-range keys deterministically (first failing GPU in index order).
func TestParallelGroupingKeyError(t *testing.T) {
	p := platform.ServerC()
	pl, _ := buildPlacement(t, p, 20000, 0.08, solver.UGache{})
	ex, err := New(p, pl)
	if err != nil {
		t.Fatal(err)
	}
	b := genBatch(t, 20000, 2000, p.N, 6)
	b.Keys[3] = append(b.Keys[3], 99999999) // out of range
	b.Keys[5] = append(b.Keys[5], -4)       // also bad, higher GPU index
	old := groupParallelThreshold
	defer func() { groupParallelThreshold = old }()
	groupParallelThreshold = math.MaxInt
	_, seqErr := ex.Run(Factored, b, nil)
	groupParallelThreshold = 0
	for i := 0; i < 10; i++ { // schedule-independence: same error every run
		_, parErr := ex.Run(Factored, b, nil)
		if parErr == nil || seqErr == nil || parErr.Error() != seqErr.Error() {
			t.Fatalf("parallel error %v != sequential error %v", parErr, seqErr)
		}
	}
}

// TestParallelGroupingAllocations holds Run on a warm scratch to its
// allocation budget: 2 a run on the sequential path, and on the parallel
// grouping 6.1 at GOMAXPROCS 2 and 7.2 at 3, what the grouping's own
// per-call worker pool allocated before it moved onto par.Each.
// (testing.AllocsPerRun runs on one processor, so the parallel rows read
// the heap's counter around the calls themselves.)
func TestParallelGroupingAllocations(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	p := platform.ServerC()
	pl, _ := buildPlacement(t, p, 20000, 0.08, solver.UGache{})
	ex, err := New(p, pl)
	if err != nil {
		t.Fatal(err)
	}
	b := genBatch(t, 20000, 2000, p.N, 7)
	sc := NewScratch()
	old := groupParallelThreshold
	defer func() { groupParallelThreshold = old }()
	for _, c := range []struct {
		procs, threshold int
		budget           float64
	}{{1, math.MaxInt, 2}, {2, 0, 6.1}, {3, 0, 7.2}} {
		runtime.GOMAXPROCS(c.procs)
		groupParallelThreshold = c.threshold
		if _, err := ex.Run(Factored, b, sc); err != nil { // warms the scratch
			t.Fatal(err)
		}
		const runs = 50
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			_, _ = ex.Run(Factored, b, sc)
		}
		runtime.ReadMemStats(&after)
		if n := float64(after.Mallocs-before.Mallocs) / runs; n > c.budget {
			t.Errorf("GOMAXPROCS %d, threshold %d: Run allocates %.1f times, budget %.1f", c.procs, c.threshold, n, c.budget)
		} else {
			t.Logf("GOMAXPROCS %d, threshold %d: Run allocates %.1f times", c.procs, c.threshold, n)
		}
	}
}

// TestRunWithScratchMatchesRun re-runs mixed batches through one shared
// Scratch and checks every Result matches a nil-scratch Run's, proving no
// state leaks between scratch reuses (including across batch sizes). A nil
// scratch is a fresh one of the call's own, so what it allocates is that
// scratch's first-use buffers: BenchmarkExtractBatch reads 27 allocs/op on
// this platform (339 when nil-scratch was a second implementation with a
// flow per demand), and the last line holds it there.
func TestRunWithScratchMatchesRun(t *testing.T) {
	p := platform.ServerC()
	pl, _ := buildPlacement(t, p, 20000, 0.08, solver.UGache{})
	ex, err := New(p, pl)
	if err != nil {
		t.Fatal(err)
	}
	sc := NewScratch()
	for i, m := range []Mechanism{Factored, FactoredStatic, Factored, Factored} {
		b := genBatch(t, 20000, 1000*(i+1), p.N, uint64(10+i))
		if i == 2 { // single-GPU batch, the serving engine's shape
			for g := 1; g < p.N; g++ {
				b.Keys[g] = nil
			}
		}
		want, err := ex.Run(m, b, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ex.Run(m, b, sc)
		if err != nil {
			t.Fatal(err)
		}
		if w, g := resultBytes(t, want), resultBytes(t, got); string(w) != string(g) {
			t.Fatalf("run %d (%s): scratch result differs\nwant: %.200s\ngot:  %.200s", i, m, w, g)
		}
	}
	b := genBatch(t, 20000, 1000, p.N, 10)
	if allocs := testing.AllocsPerRun(10, func() { _, _ = ex.Run(Factored, b, nil) }); allocs > 27 {
		t.Fatalf("Run (nil scratch) allocates %.0f times per call, want <= 27", allocs)
	}
}

// TestMechanismAllocations holds every mechanism on a warm scratch to its
// allocation budget on Servers A, B and C with 6,000 Zipf keys per GPU: each
// allocates its Result alone (1), since the simulator's Result is its
// scratch's.
func TestMechanismAllocations(t *testing.T) {
	budget := map[Mechanism]float64{Factored: 1, FactoredStatic: 1, PeerRandom: 1, MessageBased: 1}
	for _, p := range []*platform.Platform{platform.ServerA(), platform.ServerB(), platform.ServerC()} {
		pl, _ := buildPlacement(t, p, 20000, 0.08, solver.UGache{})
		ex, err := New(p, pl)
		if err != nil {
			t.Fatal(err)
		}
		b := genBatch(t, 20000, 6000, p.N, 8)
		for _, m := range []Mechanism{Factored, FactoredStatic, PeerRandom, MessageBased} {
			sc := NewScratch()
			if _, err := ex.Run(m, b, sc); err != nil { // warms the scratch
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(10, func() { _, _ = ex.Run(m, b, sc) })
			if allocs > budget[m] {
				t.Errorf("%s %s: %.0f allocs/run on a warm scratch, budget %.0f", p.Name, m, allocs, budget[m])
			} else {
				t.Logf("%s %s: %.0f allocs/run", p.Name, m, allocs)
			}
		}
	}
}
