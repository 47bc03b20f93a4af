package extract

import (
	"encoding/json"
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

// batchKeys is a batch's total key count, the number srcBytes compares with
// groupParallelThreshold.
func batchKeys(b *Batch) int {
	n := 0
	for _, keys := range b.Keys {
		n += len(keys)
	}
	return n
}

// groupingBatch is a batch of at least groupParallelThreshold keys, which
// srcBytes groups in parallel whenever GOMAXPROCS is 2 or more.
func groupingBatch(t *testing.T, p *platform.Platform, keysPerGPU int, seed uint64) *Batch {
	t.Helper()
	b := genBatch(t, 20000, keysPerGPU, p.N, seed)
	if n := batchKeys(b); n < groupParallelThreshold {
		t.Fatalf("batch of %d keys is below the grouping's parallel threshold %d", n, groupParallelThreshold)
	}
	return b
}

// TestParallelGroupingGolden is the determinism contract of the parallel
// per-GPU planning pool: the parallel grouping (GOMAXPROCS 2) must produce
// a Result byte-identical to the sequential one (GOMAXPROCS 1), for every
// mechanism.
func TestParallelGroupingGolden(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	p := platform.ServerC()
	pl, _ := buildPlacement(t, p, 20000, 0.08, solver.UGache{})
	ex, err := New(p, pl)
	if err != nil {
		t.Fatal(err)
	}
	b := groupingBatch(t, p, 6000, 5)
	for _, m := range []Mechanism{Factored, FactoredStatic, PeerRandom, MessageBased} {
		runtime.GOMAXPROCS(1)
		seq, err := ex.Run(m, b, nil)
		if err != nil {
			t.Fatalf("%s sequential: %v", m, err)
		}
		runtime.GOMAXPROCS(2)
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
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	p := platform.ServerC()
	pl, _ := buildPlacement(t, p, 20000, 0.08, solver.UGache{})
	ex, err := New(p, pl)
	if err != nil {
		t.Fatal(err)
	}
	b := groupingBatch(t, p, 2000, 6)
	b.Keys[3] = append(b.Keys[3], 99999999) // out of range
	b.Keys[5] = append(b.Keys[5], -4)       // also bad, higher GPU index
	runtime.GOMAXPROCS(1)
	_, seqErr := ex.Run(Factored, b, nil)
	runtime.GOMAXPROCS(2)
	for i := 0; i < 10; i++ { // schedule-independence: same error every run
		_, parErr := ex.Run(Factored, b, nil)
		if parErr == nil || seqErr == nil || parErr.Error() != seqErr.Error() {
			t.Fatalf("parallel error %v != sequential error %v", parErr, seqErr)
		}
	}
}

// TestParallelGroupingAllocations holds Run on a warm scratch to its
// allocation budget: 2 a run on the sequential path (GOMAXPROCS 1, or a
// batch below groupParallelThreshold at 2), and on the parallel grouping
// 6.1 at GOMAXPROCS 2 and 7.2 at 3, what the grouping's own per-call worker
// pool allocated before it moved onto par.Each. (testing.AllocsPerRun runs
// on one processor, so the rows read the heap's counter around the calls
// themselves.)
func TestParallelGroupingAllocations(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	p := platform.ServerC()
	pl, _ := buildPlacement(t, p, 20000, 0.08, solver.UGache{})
	ex, err := New(p, pl)
	if err != nil {
		t.Fatal(err)
	}
	large := groupingBatch(t, p, 2000, 7)
	small := genBatch(t, 20000, 200, p.N, 7)
	if n := batchKeys(small); n >= groupParallelThreshold {
		t.Fatalf("small batch of %d keys reaches the parallel threshold %d", n, groupParallelThreshold)
	}
	sc := NewScratch()
	for _, c := range []struct {
		procs  int
		b      *Batch
		budget float64
	}{{1, large, 2}, {2, small, 2}, {2, large, 6.1}, {3, large, 7.2}} {
		runtime.GOMAXPROCS(c.procs)
		if _, err := ex.Run(Factored, c.b, sc); err != nil { // warms the scratch
			t.Fatal(err)
		}
		const runs = 50
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			_, _ = ex.Run(Factored, c.b, sc)
		}
		runtime.ReadMemStats(&after)
		if n := float64(after.Mallocs-before.Mallocs) / runs; n > c.budget {
			t.Errorf("GOMAXPROCS %d, %d keys: Run allocates %.1f times, budget %.1f", c.procs, batchKeys(c.b), n, c.budget)
		} else {
			t.Logf("GOMAXPROCS %d, %d keys: Run allocates %.1f times", c.procs, batchKeys(c.b), n)
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

// TestNewAllocatesOnce: an extractor is its Extractor value alone; routes,
// dedications, tiers and time per byte are the platform's, derived once at
// platform.New, so a placement's extractor rebuilds none of them.
func TestNewAllocatesOnce(t *testing.T) {
	for _, p := range []*platform.Platform{platform.ServerA(), platform.ServerB(), platform.ServerC()} {
		pl, _ := buildPlacement(t, p, 2000, 0.08, solver.Replication{})
		if n := testing.AllocsPerRun(10, func() { _, _ = New(p, pl) }); n != 1 {
			t.Errorf("%s: New allocates %v times, want 1", p.Name, n)
		}
	}
}
