package milp

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"ugache/internal/lp"
)

// placementInstance builds an n-entry, 2-GPU + host miniature of the §6.2
// makespan model: binary access vars x[e][reader][src], binary storage vars
// s[e][gpu], a continuous makespan z minimized subject to z ≥ each reader's
// load, and per-GPU capacity in entries. Hotness comes in plateaus of
// `group` equally-hot entries; plateaus plus the min-max objective keep the
// root relaxation fractional, so the search genuinely branches (the
// sum-cost variant is naturally integral and solves at the root).
func placementInstance(tb testing.TB, n, capacity, group int) (*lp.Problem, []int) {
	tb.Helper()
	nv := n*2*3 + n*2 + 1
	xi := func(e, i, src int) int { return (e*2+i)*3 + src }
	si := func(e, g int) int { return n*2*3 + e*2 + g }
	zv := nv - 1
	obj := make([]float64, nv)
	obj[zv] = 1
	p, err := lp.NewProblem(nv, obj)
	if err != nil {
		tb.Fatal(err)
	}
	for e := 0; e < n; e++ {
		for i := 0; i < 2; i++ {
			p.AddConstraint([]lp.Coef{
				{Var: xi(e, i, 0), Value: 1}, {Var: xi(e, i, 1), Value: 1}, {Var: xi(e, i, 2), Value: 1},
			}, lp.EQ, 1)
			for g := 0; g < 2; g++ {
				p.AddConstraint([]lp.Coef{
					{Var: si(e, g), Value: 1}, {Var: xi(e, i, g), Value: -1},
				}, lp.GE, 0)
			}
		}
		for g := 0; g < 2; g++ {
			p.AddConstraint([]lp.Coef{{Var: si(e, g), Value: 1}}, lp.LE, 1)
		}
	}
	for g := 0; g < 2; g++ {
		coefs := make([]lp.Coef, 0, n)
		for e := 0; e < n; e++ {
			coefs = append(coefs, lp.Coef{Var: si(e, g), Value: 1})
		}
		p.AddConstraint(coefs, lp.LE, float64(capacity))
	}
	for i := 0; i < 2; i++ {
		coefs := []lp.Coef{{Var: zv, Value: 1}}
		for e := 0; e < n; e++ {
			hot := math.Pow(float64(e/group+1), -1.2) * 1000
			for src := 0; src < 3; src++ {
				cost := 40.0 // host
				if src == i {
					cost = 1 // local
				} else if src != 2 {
					cost = 4 // remote peer
				}
				coefs = append(coefs, lp.Coef{Var: xi(e, i, src), Value: -hot * cost})
			}
		}
		p.AddConstraint(coefs, lp.GE, 0)
	}
	ints := make([]int, 0, nv-1) // z stays continuous
	for v := 0; v < nv-1; v++ {
		ints = append(ints, v)
	}
	return p, ints
}

// TestBoundTightens is the regression test for the seed bug where
// globalBound stayed frozen at the root relaxation: a node-limited search
// must report a Bound strictly tighter than the root LP.
func TestBoundTightens(t *testing.T) {
	p, ints := placementInstance(t, 8, 3, 1)
	root, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	var last Progress
	s, err := Solve(p, ints, Options{MaxNodes: 32, OnProgress: func(pr Progress) { last = pr }})
	if err != nil {
		t.Fatal(err)
	}
	if s.Complete {
		t.Skip("instance solved within the node budget; cannot exercise truncation")
	}
	if s.Bound <= root.Objective {
		t.Fatalf("truncated Bound %g did not tighten past root relaxation %g", s.Bound, root.Objective)
	}
	if last.Bound != s.Bound {
		t.Fatalf("final progress bound %g != solution bound %g", last.Bound, s.Bound)
	}
	if s.Status == lp.Optimal && s.Bound > s.Objective+1e-9 {
		t.Fatalf("bound %g above incumbent %g", s.Bound, s.Objective)
	}
}

// TestDeterminismAcrossWorkers pins the headline guarantee: any worker
// count returns bit-identical Objective and X on a complete search. The
// instance is GPU-symmetric, so it has mirrored optimal solutions and the
// lexicographic tie-break is actually load-bearing.
func TestDeterminismAcrossWorkers(t *testing.T) {
	p, ints := placementInstance(t, 8, 3, 1)
	base, err := Solve(p, ints, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if base.Status != lp.Optimal || !base.Complete {
		t.Fatalf("base solve: status %v complete %v", base.Status, base.Complete)
	}
	for _, w := range []int{2, 8} {
		for rep := 0; rep < 3; rep++ {
			s, err := Solve(p, ints, Options{Workers: w})
			if err != nil {
				t.Fatal(err)
			}
			if s.Objective != base.Objective {
				t.Fatalf("W=%d rep %d: objective %v != base %v", w, rep, s.Objective, base.Objective)
			}
			for j := range s.X {
				if s.X[j] != base.X[j] {
					t.Fatalf("W=%d rep %d: X[%d] = %v != base %v", w, rep, j, s.X[j], base.X[j])
				}
			}
			if !s.Complete || s.Bound != s.Objective {
				t.Fatalf("W=%d rep %d: complete %v bound %v obj %v", w, rep, s.Complete, s.Bound, s.Objective)
			}
		}
	}
}

// TestOnProgressSerializedParallel runs with 8 workers and checks the
// OnProgress contract: never concurrent, nodes non-decreasing, incumbent
// non-increasing, bound non-decreasing, exactly one final callback.
func TestOnProgressSerializedParallel(t *testing.T) {
	p, ints := placementInstance(t, 8, 3, 1)
	var inFlight atomic.Int32
	var seen []Progress
	s, err := Solve(p, ints, Options{Workers: 8, OnProgress: func(pr Progress) {
		if inFlight.Add(1) != 1 {
			t.Error("OnProgress invoked concurrently")
		}
		seen = append(seen, pr)
		inFlight.Add(-1)
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) == 0 || !seen[len(seen)-1].Final {
		t.Fatalf("missing final callback: %d callbacks", len(seen))
	}
	finals := 0
	prev := Progress{Nodes: 0, Incumbent: math.Inf(1), Bound: math.Inf(-1)}
	for i, pr := range seen {
		if pr.Final {
			finals++
		}
		if pr.Nodes < prev.Nodes {
			t.Fatalf("callback %d: nodes went backwards %d -> %d", i, prev.Nodes, pr.Nodes)
		}
		if pr.Incumbent > prev.Incumbent {
			t.Fatalf("callback %d: incumbent worsened %g -> %g", i, prev.Incumbent, pr.Incumbent)
		}
		if pr.Bound < prev.Bound {
			t.Fatalf("callback %d: bound loosened %g -> %g", i, prev.Bound, pr.Bound)
		}
		prev = pr
	}
	if finals != 1 {
		t.Fatalf("want exactly one final callback, got %d", finals)
	}
	if last := seen[len(seen)-1]; last.Incumbent != s.Objective || last.Bound != s.Bound {
		t.Fatalf("final progress %+v vs solution obj %g bound %g", last, s.Objective, s.Bound)
	}
}

// TestGapExit: a loose RelGap lets the search stop once the live bound
// proves the gap, no later than the proof of optimality.
func TestGapExit(t *testing.T) {
	p, ints := placementInstance(t, 8, 3, 1)
	exact, err := Solve(p, ints, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	gap, err := Solve(p, ints, Options{Workers: 1, RelGap: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if !gap.Complete {
		t.Fatal("gap-target search not marked complete")
	}
	if gap.Nodes > exact.Nodes {
		t.Fatalf("gap search expanded more nodes than the proof: %d > %d", gap.Nodes, exact.Nodes)
	}
	if g := (gap.Objective - gap.Bound) / math.Abs(gap.Objective); g > 0.05+1e-9 {
		t.Fatalf("reported gap %g exceeds target", g)
	}
	if gap.Objective > exact.Objective*(1+0.05)+1e-9 {
		t.Fatalf("gap objective %g more than 5%% over the optimum %g", gap.Objective, exact.Objective)
	}
}

// TestConcurrentSolves runs independent parallel solves of the same shared
// Problem from multiple goroutines (the Problem is read-only under the new
// search); meaningful under -race.
func TestConcurrentSolves(t *testing.T) {
	p, ints := placementInstance(t, 6, 2, 1)
	base, err := Solve(p, ints, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s, err := Solve(p, ints, Options{Workers: 4})
			if err != nil {
				t.Error(err)
				return
			}
			if s.Objective != base.Objective {
				t.Errorf("objective %v != base %v", s.Objective, base.Objective)
			}
		}()
	}
	wg.Wait()
}
