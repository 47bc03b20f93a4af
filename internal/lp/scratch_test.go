package lp

import (
	"sync"
	"testing"

	"ugache/internal/rng"
)

// randomProblem builds a feasible-ish random LP: ≤ rows with nonnegative
// coefficients are always feasible at x = 0.
func randomProblem(t *testing.T, r *rng.Rand, nVars, nCons int) *Problem {
	t.Helper()
	obj := make([]float64, nVars)
	for j := range obj {
		obj[j] = r.Float64()*4 - 2
	}
	p, err := NewProblem(nVars, obj)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nCons; i++ {
		coefs := make([]Coef, 0, nVars)
		for j := 0; j < nVars; j++ {
			coefs = append(coefs, Coef{Var: j, Value: r.Float64() * 3})
		}
		if err := p.AddConstraint(coefs, LE, 1+r.Float64()*10); err != nil {
			t.Fatal(err)
		}
	}
	return p
}

// TestScratchReuseAllocFree pins the point of Scratch: after a warm-up
// solve, repeat solves of the same shape allocate nothing — on a dense
// instance and on a block-shaped one whose rows go through the non-zero sets
// and the pivot's column buffer, all of which live in the Scratch.
func TestScratchReuseAllocFree(t *testing.T) {
	for name, p := range map[string]*Problem{
		"dense":  randomProblem(t, rng.New(11), 8, 6),
		"blocks": blockLP(t, 24, 4),
	} {
		sc := &Scratch{}
		if _, err := p.Solve(sc); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := p.Solve(sc); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 0 {
			t.Fatalf("%s: warm Solve allocates %.1f times per run, want 0", name, allocs)
		}
	}
}

// TestSolutionXAliasesScratch documents the aliasing contract: X from a
// scratch solve is invalidated by the scratch's next use.
func TestSolutionXAliasesScratch(t *testing.T) {
	p, _ := NewProblem(2, []float64{-1, -1})
	p.AddConstraint([]Coef{{0, 1}, {1, 1}}, LE, 4)
	sc := &Scratch{}
	first, err := p.Solve(sc)
	if err != nil {
		t.Fatal(err)
	}
	kept := first.X
	q, _ := NewProblem(2, []float64{-2, -1})
	q.AddConstraint([]Coef{{0, 1}}, LE, 1)
	if _, err := q.Solve(sc); err != nil {
		t.Fatal(err)
	}
	second, err := p.Solve(sc)
	if err != nil {
		t.Fatal(err)
	}
	if &kept[0] != &second.X[0] {
		t.Fatal("scratch solves expected to share X backing storage")
	}
}

// TestConcurrentSolve hammers one shared Problem from many goroutines,
// each with its own scratch that it also spends on a problem of another
// shape between solves (run under -race).
func TestConcurrentSolve(t *testing.T) {
	r := rng.New(3)
	p := randomProblem(t, r, 10, 8)
	want, err := p.Solve(nil)
	if err != nil {
		t.Fatal(err)
	}
	others := make([]*Problem, 8)
	for g := range others {
		others[g] = randomProblem(t, r, 4+g, 3+g%4)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sc := &Scratch{}
			for it := 0; it < 50; it++ {
				if _, err := others[g].Solve(sc); err != nil {
					t.Error(err)
					return
				}
				sol, err := p.Solve(sc)
				if err != nil {
					t.Error(err)
					return
				}
				if sol.Objective != want.Objective {
					t.Errorf("goroutine %d: unbounded solve drifted: %g vs %g", g, sol.Objective, want.Objective)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestIterationLimitIsNotOptimal forces the simplex's iteration cap (through
// the package's iterationCap hook) on solves that need several pivots — one
// that runs out in phase 1, one that has no phase 1 and runs out in phase 2.
// The result must say so and carry no point and no objective, where it used
// to be reported as Optimal at whatever vertex the cap caught.
func TestIterationLimitIsNotOptimal(t *testing.T) {
	phase1 := fuzzLP(blockLPBytes) // five artificials to drive out
	phase2, _ := NewProblem(2, []float64{-1, -2})
	phase2.AddConstraint([]Coef{{0, 1}, {1, 1}}, LE, 4)
	phase2.AddConstraint([]Coef{{0, 1}}, LE, 3)
	phase2.AddConstraint([]Coef{{1, 1}}, LE, 2)
	shipped := iterationCap
	defer func() { iterationCap = shipped }()
	for name, p := range map[string]*Problem{"phase 1": phase1, "phase 2": phase2} {
		iterationCap = shipped
		if sol, err := p.Solve(nil); err != nil || sol.Status != Optimal {
			t.Fatalf("%s, shipped cap: %v, %v", name, sol.Status, err)
		}
		iterationCap = func(m, n int) int { return 1 }
		sol, err := p.Solve(nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if sol.Status != iterationLimit || sol.X != nil || sol.Objective != 0 {
			t.Fatalf("%s: status %v, objective %v, point %v; want a bare iteration limit", name, sol.Status, sol.Objective, sol.X)
		}
		sameSolution(t, sol, referenceSolve(p))
	}
}
