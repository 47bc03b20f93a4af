package solver

import (
	"fmt"
	"math"
	"testing"

	"ugache/internal/lp"
	"ugache/internal/platform"
	"ugache/internal/workload"
)

// milp is a small mixed-integer program — minimise obj·x over x ≥ 0 under
// rows, the ints variables integral — kept as its rows so that a branch is
// its parent's rows plus one. It and solveMILP are the tests' stand-in for the
// paper's Gurobi: an exact reference, tractable only on micro instances.
type milp struct {
	obj  []float64
	rows []lp.Constraint
	ints []int
}

func (m *milp) add(coefs []lp.Coef, op lp.Op, rhs float64) {
	m.rows = append(m.rows, lp.Constraint{Coefs: coefs, Op: op, RHS: rhs})
}

// relax solves the LP relaxation with the branch rows added.
func (m *milp) relax(branch []lp.Constraint) (lp.Solution, error) {
	p, err := lp.NewProblem(len(m.obj), m.obj)
	if err != nil {
		return lp.Solution{}, err
	}
	for _, rows := range [][]lp.Constraint{m.rows, branch} {
		for _, r := range rows {
			if err := p.AddConstraint(r.Coefs, r.Op, r.RHS); err != nil {
				return lp.Solution{}, err
			}
		}
	}
	return p.Solve(nil) // a private scratch: the incumbent keeps its X
}

// solveMILP is a sequential depth-first branch and bound: it branches on the
// most fractional integer variable (lowest index on ties), down before up,
// and prunes a subtree whose relaxation cannot beat the incumbent. The result
// is Optimal with the best integral point, or Infeasible.
func solveMILP(m *milp) (lp.Solution, error) {
	best := lp.Solution{Status: lp.Infeasible, Objective: math.Inf(1)}
	var search func(branch []lp.Constraint) error
	search = func(branch []lp.Constraint) error {
		sol, err := m.relax(branch)
		if err != nil {
			return err
		}
		if sol.Status == lp.Infeasible {
			return nil
		}
		if sol.Status != lp.Optimal {
			return fmt.Errorf("milp: relaxation %v", sol.Status)
		}
		if sol.Objective >= best.Objective-1e-9 {
			return nil
		}
		v, worst := -1, 1e-6
		for _, i := range m.ints {
			f := sol.X[i] - math.Floor(sol.X[i])
			if frac := min(f, 1-f); frac > worst {
				v, worst = i, frac
			}
		}
		if v < 0 {
			best = sol
			return nil
		}
		fl := math.Floor(sol.X[v])
		branch = branch[:len(branch):len(branch)] // the two children must not share an append
		on := []lp.Coef{{Var: v, Value: 1}}
		if err := search(append(branch, lp.Constraint{Coefs: on, Op: lp.LE, RHS: fl})); err != nil {
			return err
		}
		return search(append(branch, lp.Constraint{Coefs: on, Op: lp.GE, RHS: fl + 1}))
	}
	err := search(nil)
	return best, err
}

// mustSolveMILP solves m and demands the status want.
func mustSolveMILP(t *testing.T, m *milp, want lp.Status) lp.Solution {
	t.Helper()
	s, err := solveMILP(m)
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != want {
		t.Fatalf("status %v, want %v", s.Status, want)
	}
	return s
}

func TestMILPKnapsack(t *testing.T) {
	// max 5a + 4b + 3c s.t. 2a + 3b + c <= 5, binary: a = b = 1, c = 0, value 9.
	m := &milp{obj: []float64{-5, -4, -3}, ints: []int{0, 1, 2}}
	m.add([]lp.Coef{{Var: 0, Value: 2}, {Var: 1, Value: 3}, {Var: 2, Value: 1}}, lp.LE, 5)
	for v := 0; v < 3; v++ {
		m.add([]lp.Coef{{Var: v, Value: 1}}, lp.LE, 1)
	}
	s := mustSolveMILP(t, m, lp.Optimal)
	if math.Abs(s.Objective-(-9)) > 1e-6 {
		t.Fatalf("objective %g, want -9", s.Objective)
	}
	for v, want := range []float64{1, 1, 0} {
		if math.Abs(s.X[v]-want) > 1e-6 {
			t.Fatalf("x = %v", s.X)
		}
	}
}

func TestMILPIntegerRounding(t *testing.T) {
	// min -x s.t. 2x <= 7, x integer -> x = 3 (LP gives 3.5).
	m := &milp{obj: []float64{-1}, ints: []int{0}}
	m.add([]lp.Coef{{Var: 0, Value: 2}}, lp.LE, 7)
	if s := mustSolveMILP(t, m, lp.Optimal); math.Abs(s.X[0]-3) > 1e-6 {
		t.Fatalf("x = %v", s.X)
	}
}

func TestMILPMixedIntegerContinuous(t *testing.T) {
	// min -x - y, x integer, x <= 2.5, y <= 1.3 -> x=2, y=1.3, obj -3.3.
	m := &milp{obj: []float64{-1, -1}, ints: []int{0}}
	m.add([]lp.Coef{{Var: 0, Value: 1}}, lp.LE, 2.5)
	m.add([]lp.Coef{{Var: 1, Value: 1}}, lp.LE, 1.3)
	if s := mustSolveMILP(t, m, lp.Optimal); math.Abs(s.Objective-(-3.3)) > 1e-6 || math.Abs(s.X[0]-2) > 1e-6 {
		t.Fatalf("obj %g x %v", s.Objective, s.X)
	}
}

func TestMILPInfeasibleInteger(t *testing.T) {
	// 0.4 <= x <= 0.6 has no integer point.
	m := &milp{obj: []float64{1}, ints: []int{0}}
	m.add([]lp.Coef{{Var: 0, Value: 1}}, lp.GE, 0.4)
	m.add([]lp.Coef{{Var: 0, Value: 1}}, lp.LE, 0.6)
	mustSolveMILP(t, m, lp.Infeasible)
}

func TestMILPInfeasibleLP(t *testing.T) {
	m := &milp{obj: []float64{1}, ints: []int{0}}
	m.add([]lp.Coef{{Var: 0, Value: 1}}, lp.LE, 1)
	m.add([]lp.Coef{{Var: 0, Value: 1}}, lp.GE, 2)
	mustSolveMILP(t, m, lp.Infeasible)
}

func TestMILPPlacementToy(t *testing.T) {
	// A 2-GPU, 3-entry miniature of the paper's §6.2 model, symmetric
	// hotness {3, 2, 1}, each GPU capacity 1 entry, local time 1, remote 2,
	// host 10 per unit hotness, summed rather than maximised. Variables:
	// x[e][i][src] (src 0, 1: a GPU, 2: host), the reader's source, and
	// s[e][g], the storage, all binary.
	xi := func(e, i, src int) int { return (e*2+i)*3 + src }
	si := func(e, g int) int { return 18 + e*2 + g }
	hot := []float64{3, 2, 1}
	m := &milp{obj: make([]float64, 3*2*3+6)}
	for e := 0; e < 3; e++ {
		for i := 0; i < 2; i++ {
			for src := 0; src < 3; src++ {
				cost := 10.0
				if src == i {
					cost = 1
				} else if src != 2 {
					cost = 2
				}
				m.obj[xi(e, i, src)] = hot[e] * cost
			}
		}
	}
	for e := 0; e < 3; e++ {
		for i := 0; i < 2; i++ {
			// Each (entry, reader) reads from exactly one source.
			m.add([]lp.Coef{
				{Var: xi(e, i, 0), Value: 1}, {Var: xi(e, i, 1), Value: 1}, {Var: xi(e, i, 2), Value: 1},
			}, lp.EQ, 1)
			// Reading from GPU g requires storage there.
			for g := 0; g < 2; g++ {
				m.add([]lp.Coef{{Var: si(e, g), Value: 1}, {Var: xi(e, i, g), Value: -1}}, lp.GE, 0)
			}
		}
		for g := 0; g < 2; g++ {
			m.add([]lp.Coef{{Var: si(e, g), Value: 1}}, lp.LE, 1)
		}
	}
	// Capacity: one entry per GPU.
	for g := 0; g < 2; g++ {
		m.add([]lp.Coef{{Var: si(0, g), Value: 1}, {Var: si(1, g), Value: 1}, {Var: si(2, g), Value: 1}}, lp.LE, 1)
	}
	for v := range m.obj {
		m.ints = append(m.ints, v)
	}
	s := mustSolveMILP(t, m, lp.Optimal)
	// Entries 0 and 1 cached on different GPUs, entry 2 on the host:
	// 3·(1+2) + 2·(1+2) + 1·(10+10) = 35. (Replicating entry 0 and leaving
	// entry 1 on the host is worse.)
	if math.Abs(s.Objective-35) > 1e-6 {
		t.Fatalf("objective %g, want 35", s.Objective)
	}
	for g := 0; g < 2; g++ {
		if sum := s.X[si(0, g)] + s.X[si(1, g)] + s.X[si(2, g)]; sum > 1+1e-6 {
			t.Fatalf("gpu %d over capacity: %g", g, sum)
		}
	}
}

// microInput builds a reduced 2-GPU instance: n entries, Zipf-ish hotness,
// per-GPU capacity.
func microInput(t testing.TB, n int, capacity int64) *Input {
	t.Helper()
	pair := [][]float64{{0, 50e9}, {50e9, 0}}
	p, err := platform.New(platform.Config{
		Name: "2xV100", Kind: platform.HardWired, GPU: platform.V100x16, N: 2,
		PCIeBW: 12e9, DRAMBW: 140e9, PairBW: pair,
	})
	if err != nil {
		t.Fatal(err)
	}
	h := make(workload.Hotness, n)
	for e := 0; e < n; e++ {
		h[e] = math.Pow(float64(e+1), -1.2) * 1000
	}
	return &Input{P: p, Hotness: h, EntryBytes: 512, Capacity: []int64{capacity, capacity}}
}

// buildEntryMILP constructs the paper's §6.2 model at *entry* granularity
// with binary storage/access variables — the formulation the paper hands to
// Gurobi — for a micro instance, so branch and bound stays tractable. The
// objective is rescaled; objective converts a solution back to seconds.
func buildEntryMILP(in *Input, m *costModel) (prob *milp, objective func(x []float64) float64) {
	g := in.P.N
	srcs := in.P.NumSources()
	n := len(in.Hotness)
	av := func(e, i, j int) int { return (e*g+i)*srcs + j }
	sv := func(e, j int) int { return n*g*srcs + e*g + j }
	zVar := n*g*srcs + n*g
	prob = &milp{obj: make([]float64, zVar+1)}
	prob.obj[zVar] = 1
	scale := 1.0
	if tot := in.Hotness.Total() * float64(in.EntryBytes); tot > 0 {
		scale = 1 / (tot * m.invEff[0][srcs-1])
	}
	for e := 0; e < n; e++ {
		for i := 0; i < g; i++ {
			var sum []lp.Coef
			for j := 0; j < srcs; j++ {
				if math.IsInf(m.invEff[i][j], 1) {
					continue
				}
				sum = append(sum, lp.Coef{Var: av(e, i, j), Value: 1})
				prob.ints = append(prob.ints, av(e, i, j))
			}
			prob.add(sum, lp.EQ, 1)
			for j := 0; j < g; j++ {
				if !math.IsInf(m.invEff[i][j], 1) {
					prob.add([]lp.Coef{{Var: sv(e, j), Value: 1}, {Var: av(e, i, j), Value: -1}}, lp.GE, 0)
				}
			}
		}
		for j := 0; j < g; j++ {
			prob.add([]lp.Coef{{Var: sv(e, j), Value: 1}}, lp.LE, 1)
			prob.ints = append(prob.ints, sv(e, j))
		}
	}
	for j := 0; j < g; j++ {
		coefs := make([]lp.Coef, 0, n)
		for e := 0; e < n; e++ {
			coefs = append(coefs, lp.Coef{Var: sv(e, j), Value: 1})
		}
		prob.add(coefs, lp.LE, float64(in.Capacity[j]))
	}
	for i := 0; i < g; i++ {
		pack := []lp.Coef{{Var: zVar, Value: 1}}
		for j := 0; j < srcs; j++ {
			if math.IsInf(m.invEff[i][j], 1) {
				continue
			}
			link := []lp.Coef{{Var: zVar, Value: 1}}
			for e := 0; e < n; e++ {
				bytes := in.Hotness[e] * float64(in.EntryBytes) * scale
				link = append(link, lp.Coef{Var: av(e, i, j), Value: -bytes * m.invEff[i][j]})
				pack = append(pack, lp.Coef{Var: av(e, i, j), Value: -bytes * m.packCost[i][j]})
			}
			prob.add(link, lp.GE, 0)
		}
		prob.add(pack, lp.GE, 0)
	}
	return prob, func(x []float64) float64 { return x[zVar] / scale }
}

// TestUGacheMatchesEntryMILP cross-validates the entire solver chain on a
// micro instance: the block-LP UGache solution must land within a few
// percent of the exact entry-granularity MILP optimum (branch and bound).
func TestUGacheMatchesEntryMILP(t *testing.T) {
	in := microInput(t, 12, 4) // two GPUs keep the MILP small
	prob, objective := buildEntryMILP(in, newCostModel(in))
	exact := objective(mustSolveMILP(t, prob, lp.Optimal).X)

	ug := mustSolve(t, UGache{}, in)
	got := maxF(ug.EstTimes)
	if got < exact*(1-1e-6) {
		t.Fatalf("ugache %g beats the exact optimum %g (model inconsistency)", got, exact)
	}
	if got > exact*1.10 {
		t.Fatalf("ugache %g is %.1f%% above the exact optimum %g",
			got, 100*(got/exact-1), exact)
	}
	t.Logf("exact entry-MILP optimum %.4g, UGache %.4g (gap %.2f%%)",
		exact, got, 100*(got/exact-1))
}
