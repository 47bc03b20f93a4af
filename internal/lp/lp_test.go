package lp

import (
	"math"
	"testing"

	"ugache/internal/rng"
)

func solve(t *testing.T, p *Problem) Solution {
	t.Helper()
	s, err := p.Solve(nil)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func wantObj(t *testing.T, s Solution, want float64) {
	t.Helper()
	if s.Status != Optimal {
		t.Fatalf("status %v, want optimal", s.Status)
	}
	if math.Abs(s.Objective-want) > 1e-6 {
		t.Fatalf("objective %g, want %g", s.Objective, want)
	}
}

func TestSimpleMin(t *testing.T) {
	// min -x - 2y  s.t. x + y <= 4, x <= 3, y <= 2  -> x=2 (wait: x+y<=4,
	// y<=2 -> y=2, x=2) obj = -6.
	p, err := NewProblem(2, []float64{-1, -2})
	if err != nil {
		t.Fatal(err)
	}
	p.AddConstraint([]Coef{{0, 1}, {1, 1}}, LE, 4)
	p.AddConstraint([]Coef{{0, 1}}, LE, 3)
	p.AddConstraint([]Coef{{1, 1}}, LE, 2)
	s := solve(t, p)
	wantObj(t, s, -6)
	if math.Abs(s.X[0]-2) > 1e-6 || math.Abs(s.X[1]-2) > 1e-6 {
		t.Fatalf("x = %v", s.X)
	}
}

func TestEqualityAndGE(t *testing.T) {
	// min x + y  s.t. x + y = 10, x >= 3, y >= 2 -> obj 10.
	p, _ := NewProblem(2, []float64{1, 1})
	p.AddConstraint([]Coef{{0, 1}, {1, 1}}, EQ, 10)
	p.AddConstraint([]Coef{{0, 1}}, GE, 3)
	p.AddConstraint([]Coef{{1, 1}}, GE, 2)
	s := solve(t, p)
	wantObj(t, s, 10)
	if s.X[0] < 3-1e-6 || s.X[1] < 2-1e-6 {
		t.Fatalf("bounds violated: %v", s.X)
	}
}

func TestInfeasible(t *testing.T) {
	p, _ := NewProblem(1, []float64{1})
	p.AddConstraint([]Coef{{0, 1}}, LE, 1)
	p.AddConstraint([]Coef{{0, 1}}, GE, 2)
	s := solve(t, p)
	if s.Status != Infeasible {
		t.Fatalf("status %v", s.Status)
	}
}

func TestUnbounded(t *testing.T) {
	p, _ := NewProblem(2, []float64{-1, 0})
	p.AddConstraint([]Coef{{1, 1}}, LE, 5) // y <= 5, x free upward
	s := solve(t, p)
	if s.Status != unbounded {
		t.Fatalf("status %v", s.Status)
	}
}

func TestUnconstrained(t *testing.T) {
	p, _ := NewProblem(2, []float64{1, 2})
	s := solve(t, p)
	wantObj(t, s, 0)
	p2, _ := NewProblem(1, []float64{-1})
	s2 := solve(t, p2)
	if s2.Status != unbounded {
		t.Fatalf("status %v", s2.Status)
	}
}

func TestNegativeRHSNormalization(t *testing.T) {
	// min x  s.t. -x <= -3  (i.e. x >= 3) -> 3.
	p, _ := NewProblem(1, []float64{1})
	p.AddConstraint([]Coef{{0, -1}}, LE, -3)
	s := solve(t, p)
	wantObj(t, s, 3)
}

func TestDegenerate(t *testing.T) {
	// Classic degenerate LP; must terminate and find the optimum.
	// min -0.75x4 + 150x5 - 0.02x6 + 6x7 (Beale's cycling example,
	// constraints scaled); optimum is -0.05.
	p, _ := NewProblem(4, []float64{-0.75, 150, -0.02, 6})
	p.AddConstraint([]Coef{{0, 0.25}, {1, -60}, {2, -0.04}, {3, 9}}, LE, 0)
	p.AddConstraint([]Coef{{0, 0.5}, {1, -90}, {2, -0.02}, {3, 3}}, LE, 0)
	p.AddConstraint([]Coef{{2, 1}}, LE, 1)
	s := solve(t, p)
	wantObj(t, s, -0.05)
}

func TestDietStyle(t *testing.T) {
	// min 2x + 3y s.t. x + 2y >= 8, 3x + y >= 9 -> intersection x=2, y=3,
	// obj 13.
	p, _ := NewProblem(2, []float64{2, 3})
	p.AddConstraint([]Coef{{0, 1}, {1, 2}}, GE, 8)
	p.AddConstraint([]Coef{{0, 3}, {1, 1}}, GE, 9)
	s := solve(t, p)
	wantObj(t, s, 13)
}

func TestMinimaxEncoding(t *testing.T) {
	// The solver package encodes "minimize max_i t_i" as min z, z >= t_i.
	// min z s.t. z >= 3, z >= 5 -> 5.
	p, _ := NewProblem(1, []float64{1})
	p.AddConstraint([]Coef{{0, 1}}, GE, 3)
	p.AddConstraint([]Coef{{0, 1}}, GE, 5)
	s := solve(t, p)
	wantObj(t, s, 5)
}

func TestValidation(t *testing.T) {
	if _, err := NewProblem(0, nil); err == nil {
		t.Fatal("zero vars accepted")
	}
	if _, err := NewProblem(1, []float64{1, 2}); err == nil {
		t.Fatal("oversized objective accepted")
	}
	p, _ := NewProblem(1, []float64{1})
	if err := p.AddConstraint([]Coef{{5, 1}}, LE, 1); err == nil {
		t.Fatal("bad var index accepted")
	}
	if err := p.AddConstraint([]Coef{{0, math.NaN()}}, LE, 1); err == nil {
		t.Fatal("NaN coefficient accepted")
	}
	if err := p.AddConstraint([]Coef{{0, 1}}, LE, math.Inf(1)); err == nil {
		t.Fatal("Inf rhs accepted")
	}
}

func TestTooLarge(t *testing.T) {
	p, _ := NewProblem(10, nil)
	for i := 0; i < maxSize+1; i++ {
		p.AddConstraint([]Coef{{0, 1}}, LE, 1)
	}
	if _, err := p.Solve(nil); err == nil {
		t.Fatal("oversized problem accepted")
	}
}

func TestRandomFeasibilityProperty(t *testing.T) {
	// Random small LPs: any Optimal solution must satisfy every constraint
	// and have non-negative variables.
	r := rng.New(77)
	for trial := 0; trial < 200; trial++ {
		nv := 1 + r.Intn(5)
		obj := make([]float64, nv)
		for j := range obj {
			obj[j] = r.Float64()*4 - 2
		}
		p, _ := NewProblem(nv, obj)
		nc := 1 + r.Intn(6)
		type row struct {
			coefs []Coef
			op    Op
			rhs   float64
		}
		var rows []row
		for i := 0; i < nc; i++ {
			var coefs []Coef
			for j := 0; j < nv; j++ {
				if r.Float64() < 0.7 {
					coefs = append(coefs, Coef{j, r.Float64()*4 - 2})
				}
			}
			if len(coefs) == 0 {
				coefs = []Coef{{0, 1}}
			}
			op := Op(r.Intn(3))
			rhs := r.Float64()*10 - 2
			rows = append(rows, row{coefs, op, rhs})
			if err := p.AddConstraint(coefs, op, rhs); err != nil {
				t.Fatal(err)
			}
		}
		s, err := p.Solve(nil)
		if err != nil {
			t.Fatal(err)
		}
		if s.Status != Optimal {
			continue
		}
		for j, v := range s.X {
			if v < -1e-7 {
				t.Fatalf("trial %d: x[%d] = %g negative", trial, j, v)
			}
		}
		for i, rw := range rows {
			lhs := 0.0
			for _, c := range rw.coefs {
				lhs += c.Value * s.X[c.Var]
			}
			ok := false
			switch rw.op {
			case LE:
				ok = lhs <= rw.rhs+1e-6
			case GE:
				ok = lhs >= rw.rhs-1e-6
			case EQ:
				ok = math.Abs(lhs-rw.rhs) <= 1e-6
			}
			if !ok {
				t.Fatalf("trial %d: constraint %d violated: lhs=%g %v rhs=%g",
					trial, i, lhs, rw.op, rw.rhs)
			}
		}
	}
}

func TestStatusStrings(t *testing.T) {
	if Optimal.String() != "optimal" || Infeasible.String() != "infeasible" || unbounded.String() != "unbounded" ||
		iterationLimit.String() != "iteration limit" {
		t.Fatal("status strings")
	}
	if LE.String() != "<=" || EQ.String() != "=" || GE.String() != ">=" {
		t.Fatal("op strings")
	}
}

func BenchmarkSimplexMedium(b *testing.B) {
	// A ~400-variable, ~200-row random-feasible LP.
	build := func() *Problem {
		r := rng.New(5)
		nv := 400
		obj := make([]float64, nv)
		for j := range obj {
			obj[j] = r.Float64()
		}
		p, _ := NewProblem(nv, obj)
		for i := 0; i < 200; i++ {
			var coefs []Coef
			for j := 0; j < 8; j++ {
				coefs = append(coefs, Coef{Var: r.Intn(nv), Value: r.Float64() + 0.1})
			}
			p.AddConstraint(coefs, GE, r.Float64())
		}
		return p
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := build().Solve(nil)
		if err != nil || s.Status != Optimal {
			b.Fatalf("status %v err %v", s.Status, err)
		}
	}
}

// blockLP builds the policy solve's LP shape at any size: nb hotness blocks
// (Zipf masses, growing entry counts) on g symmetric GPUs, one replication-
// count distribution per block. Of its nb+5 rows, nb are "sums to 1"
// equalities with g+1 non-zeros; the capacity row and the four "z ≥ time"
// rows span nearly every column.
func blockLP(tb testing.TB, nb, g int) *Problem {
	tb.Helper()
	nx := nb * (g + 1)
	obj := make([]float64, nx+1)
	obj[nx] = 1
	p, err := NewProblem(nx+1, obj)
	if err != nil {
		tb.Fatal(err)
	}
	add := func(coefs []Coef, op Op, rhs float64) {
		if err := p.AddConstraint(coefs, op, rhs); err != nil {
			tb.Fatal(err)
		}
	}
	mass := make([]float64, nb)
	total, entries := 0.0, 0.0
	for b := range mass {
		mass[b] = math.Pow(float64(b+1), -1.2)
		total += mass[b]
		entries += float64(b + 1)
	}
	var capacity []Coef
	for b := 0; b < nb; b++ {
		ones := make([]Coef, g+1)
		for cnt := range ones {
			ones[cnt] = Coef{Var: b*(g+1) + cnt, Value: 1}
			if cnt > 0 {
				capacity = append(capacity, Coef{Var: b*(g+1) + cnt, Value: float64(b+1) * float64(cnt) / float64(g)})
			}
		}
		add(ones, EQ, 1)
	}
	add(capacity, LE, 0.1*entries)
	// Seconds per unit of mass read from the local GPU, a peer and the host,
	// as link time and as packing time.
	const linkLoc, linkRem, linkHost, packLoc, packRem, packHost = 0.02, 0.1, 1, 0.03, 0.08, 0.5
	timeRow := func(weight func(local, remote, host float64) float64) {
		coefs := []Coef{{Var: nx, Value: 1}}
		for b := 0; b < nb; b++ {
			for cnt := 0; cnt <= g; cnt++ {
				local := float64(cnt) / float64(g)
				remote, host := 1-local, 0.0
				if cnt == 0 {
					remote, host = 0, 1
				}
				if w := weight(local, remote, host); w != 0 {
					coefs = append(coefs, Coef{Var: b*(g+1) + cnt, Value: -mass[b] / total * w})
				}
			}
		}
		add(coefs, GE, 0)
	}
	timeRow(func(l, r, h float64) float64 { return l * linkLoc })
	timeRow(func(l, r, h float64) float64 { return r * linkRem / float64(g-1) })
	timeRow(func(l, r, h float64) float64 { return h * linkHost })
	timeRow(func(l, r, h float64) float64 { return l*packLoc + r*packRem + h*packHost })
	return p
}

var benchSolution Solution

// BenchmarkSimplexBlockLP is the sparse counterpart of BenchmarkSimplexMedium:
// the policy solve's LP at the default block budget's scale on four GPUs
// (235 rows × ~1 400 columns, ~230 of the rows with five non-zeros), solved
// warm — one Scratch, as the solver's pool provides — so allocs/op is the
// warm-solve budget, 0.
func BenchmarkSimplexBlockLP(b *testing.B) {
	p := blockLP(b, 230, 4)
	sc := &Scratch{}
	solveOnce := func() {
		sol, err := p.Solve(sc)
		if err != nil || sol.Status != Optimal {
			b.Fatalf("status %v err %v", sol.Status, err)
		}
		benchSolution = sol
	}
	solveOnce()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		solveOnce()
	}
}
