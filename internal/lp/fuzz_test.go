package lp

import (
	"math"
	"math/bits"
	"testing"
)

// fuzzLP decodes bytes into a small LP; every byte string is some instance (a
// short one reads as zeros). All numbers are small
// integers or halves, so neither solver meets overflow or a near-singular
// pivot the other would round differently. Layout: variable count, row count,
// bound count; one objective byte per variable; per row an operator, a
// right-hand side in [-3, 3] by halves, a mask of the variables present (few
// bits: a sparse row; all: a dense one) and one coefficient byte in [-3, 3]
// per present variable; per bound — a single-variable row appended after the
// others — a variable, an operator and a right-hand side in [0, 4].
func fuzzLP(data []byte) *Problem {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	nVars, nCons, nBounds := 1+next()%8, 1+next()%8, next()%4
	obj := make([]float64, nVars)
	for j := range obj {
		obj[j] = float64(next()%7 - 3)
	}
	p, err := NewProblem(nVars, obj)
	if err != nil {
		panic(err)
	}
	for i := 0; i < nCons; i++ {
		op, rhs, mask := Op(next()%3), float64(next()%13-6)/2, next()
		var coefs []Coef
		for j := 0; j < nVars; j++ {
			if mask>>j&1 != 0 {
				coefs = append(coefs, Coef{Var: j, Value: float64(next()%7 - 3)})
			}
		}
		if err := p.AddConstraint(coefs, op, rhs); err != nil {
			panic(err)
		}
	}
	for k := 0; k < nBounds; k++ {
		v, op, rhs := next()%nVars, Op(next()%3), float64(next()%5)
		if err := p.AddConstraint([]Coef{{Var: v, Value: 1}}, op, rhs); err != nil {
			panic(err)
		}
	}
	return p
}

// blockLPBytes is fuzzLP's encoding of the policy solve's LP in miniature: two
// blocks of three replication counts each and the makespan variable z; one
// "distribution sums to 1" equality per block, a capacity row, and three
// "z ≥ time" rows — the shape whose sparsity the tableau exploits
// (testdata/fuzz/FuzzLPSolve/block-equalities holds the same bytes).
var blockLPBytes = []byte{
	6, 5, 1, // 7 variables, 6 rows, 1 bound
	3, 3, 3, 3, 3, 3, 4, // minimise z
	1, 8, 0b0000111, 4, 4, 4, // x00 + x01 + x02 = 1
	1, 8, 0b0111000, 4, 4, 4, // x10 + x11 + x12 = 1
	0, 9, 0b0110110, 4, 5, 4, 5, // x01 + 2·x02 + x11 + 2·x12 ≤ 1.5
	2, 6, 0b1110110, 2, 1, 1, 0, 4, // z ≥ 1·x01 + 2·x02 + 2·x11 + 3·x12 (local)
	2, 6, 0b1010010, 2, 1, 4, // z ≥ x01 + 2·x11 (remote)
	2, 6, 0b1001001, 0, 1, 4, // z ≥ 3·x00 + 2·x10 (host)
	2, 0, 1, // x02 ≤ 1
}

// coverViolation returns the first cell of t that is non-zero outside its
// row's non-zero set, or (with j = -1) a row whose count disagrees with its
// set.
func (t *tableau) coverViolation() (i, j int, bad bool) {
	for i := range t.a {
		count := 0
		for _, w := range t.nz[i] {
			count += bits.OnesCount64(w)
		}
		if count != t.nzCount[i] {
			return i, -1, true
		}
		for j, v := range t.a[i] {
			if v != 0 && t.nz[i][j>>6]>>(j&63)&1 == 0 {
				return i, j, true
			}
		}
	}
	return 0, 0, false
}

// watchCover makes every pivot until the test ends check coverViolation.
func watchCover(t testing.TB) (pivots *int) {
	pivots = new(int)
	afterPivot = func(tab *tableau) {
		*pivots++
		if i, j, bad := tab.coverViolation(); bad {
			t.Fatalf("after pivot %d: row %d, column %d: non-zero cell outside the row's set, or a stale count", *pivots, i, j)
		}
	}
	t.Cleanup(func() { afterPivot = nil })
	return pivots
}

// sameSolution demands the reference's status and, bit for bit, its objective
// and point.
func sameSolution(t testing.TB, got, want Solution) {
	t.Helper()
	if got.Status != want.Status {
		t.Fatalf("status %v, reference %v", got.Status, want.Status)
	}
	if math.Float64bits(got.Objective) != math.Float64bits(want.Objective) {
		t.Fatalf("objective %v (%#x), reference %v (%#x)", got.Objective, math.Float64bits(got.Objective),
			want.Objective, math.Float64bits(want.Objective))
	}
	if len(got.X) != len(want.X) {
		t.Fatalf("%d coordinates, reference %d", len(got.X), len(want.X))
	}
	for j := range want.X {
		if math.Float64bits(got.X[j]) != math.Float64bits(want.X[j]) {
			t.Fatalf("x[%d] = %v (%#x), reference %v (%#x)", j, got.X[j], math.Float64bits(got.X[j]),
				want.X[j], math.Float64bits(want.X[j]))
		}
	}
}

// FuzzLPSolve solves random small LPs — mixed ≤/=/≥ rows, negative right-hand
// sides, sparse and dense rows, single-variable bounds — with the shipped
// tableau and with the full-width reference, and demands the same status and
// the same bits; an optimal point must also satisfy the problem. Every pivot of the
// shipped solve checks the non-zero sets on the way. One Scratch serves the
// whole run, so instances of every shape follow each other through it.
func FuzzLPSolve(f *testing.F) {
	f.Add(blockLPBytes) // the rest of the seed corpus is in testdata/fuzz/FuzzLPSolve
	sc := &Scratch{}
	f.Fuzz(func(t *testing.T, data []byte) {
		p := fuzzLP(data)
		watchCover(t)
		got, err := p.Solve(sc)
		if err != nil {
			t.Fatal(err)
		}
		sameSolution(t, got, referenceSolve(p))
		if got.Status == Optimal && !p.Feasible(got.X, 1e-6) {
			t.Fatalf("optimal point %v violates a constraint", got.X)
		}
	})
}
