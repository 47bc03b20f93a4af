// Package lp implements a two-phase primal simplex solver for linear
// programs in the form
//
//	minimize   cᵀx
//	subject to Σ aᵢⱼ xⱼ (≤ | = | ≥) bᵢ,   x ≥ 0.
//
// It is the engine behind internal/solver's LP policies, which solve the
// block-granularity cache-policy model of paper §6.2 (a MILP handed to Gurobi
// in the original system) as an LP, exact because hotness blocks are
// divisible. It is sized for those small models.
//
// The implementation is a dense tableau with Dantzig pricing and a Bland's
// rule fallback for anti-cycling, deliberately simple and heavily validated.
// Its one concession to speed is that it knows where a row's zeros are: each
// row carries a bitset covering its non-zero columns, and pivots and pricing
// skip the rest (see tableau).
package lp

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
)

// Op is a constraint relation.
type Op int

const (
	LE Op = iota // ≤
	EQ           // =
	GE           // ≥
)

func (o Op) String() string {
	switch o {
	case LE:
		return "<="
	case EQ:
		return "="
	default:
		return ">="
	}
}

// Coef is one sparse coefficient.
type Coef struct {
	Var   int
	Value float64
}

// Constraint is one row, built sparsely.
type Constraint struct {
	Coefs []Coef
	Op    Op
	RHS   float64
}

// Problem is an LP under construction. Create with NewProblem, add
// constraints, then Solve.
type Problem struct {
	numVars int
	obj     []float64
	cons    []Constraint
}

// NewProblem creates a minimization problem over numVars variables (all
// implicitly ≥ 0) with the given objective coefficients (padded with zeros
// if short).
func NewProblem(numVars int, objective []float64) (*Problem, error) {
	if numVars <= 0 {
		return nil, fmt.Errorf("lp: need at least one variable")
	}
	if len(objective) > numVars {
		return nil, fmt.Errorf("lp: objective has %d coefficients for %d variables", len(objective), numVars)
	}
	obj := make([]float64, numVars)
	copy(obj, objective)
	return &Problem{numVars: numVars, obj: obj}, nil
}

// AddConstraint appends a row.
func (p *Problem) AddConstraint(coefs []Coef, op Op, rhs float64) error {
	for _, c := range coefs {
		if c.Var < 0 || c.Var >= p.numVars {
			return fmt.Errorf("lp: coefficient references variable %d of %d", c.Var, p.numVars)
		}
		if math.IsNaN(c.Value) || math.IsInf(c.Value, 0) {
			return fmt.Errorf("lp: non-finite coefficient for variable %d", c.Var)
		}
	}
	if math.IsNaN(rhs) || math.IsInf(rhs, 0) {
		return fmt.Errorf("lp: non-finite rhs")
	}
	cp := make([]Coef, len(coefs))
	copy(cp, coefs)
	p.cons = append(p.cons, Constraint{Coefs: cp, Op: op, RHS: rhs})
	return nil
}

// Status reports the outcome of Solve.
type Status int

const (
	Optimal Status = iota
	Infeasible
	unbounded
	// iterationLimit means the simplex stopped at its iteration cap without
	// proving anything: there is no objective, no point and no bound.
	iterationLimit
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case unbounded:
		return "unbounded"
	default:
		return "iteration limit"
	}
}

// Solution holds an LP result; Objective and X are set only when Status is
// Optimal.
type Solution struct {
	Status    Status
	Objective float64
	X         []float64
}

// errTooLarge guards against accidentally feeding the dense tableau a
// full-scale model.
var errTooLarge = errors.New("lp: problem too large for the dense solver")

const (
	eps     = 1e-9
	maxSize = 2000 // max rows or columns for the dense tableau
)

// Scratch holds the simplex working set — tableau cells and their non-zero
// sets, bases, objective rows, pricing and result buffers — so repeated
// solves (refresh re-solves) stop allocating once the buffers have grown to
// the instance size. A Scratch may be used by one
// goroutine at a time; distinct goroutines solving the same read-only Problem
// concurrently must use distinct Scratches.
type Scratch struct {
	cells   []float64
	rows    [][]float64
	nzWords []uint64
	nz      [][]uint64
	nzCount []int
	cols    []int
	b       []float64
	basis   []int
	artCols []bool
	phase1  []float64
	phase2  []float64
	rc      []float64
	x       []float64
	tab     tableau
}

// growF returns buf resized to n without zeroing (callers that need zeros
// must clear it themselves).
func growF(buf *[]float64, n int) []float64 {
	if cap(*buf) < n {
		*buf = make([]float64, n)
	}
	return (*buf)[:n]
}

func growI(buf *[]int, n int) []int {
	if cap(*buf) < n {
		*buf = make([]int, n)
	}
	return (*buf)[:n]
}

// flipOp mirrors a relation, used when normalizing a row to a nonnegative
// right-hand side.
func flipOp(op Op) Op {
	switch op {
	case LE:
		return GE
	case GE:
		return LE
	}
	return op
}

// Solve solves the problem in sc's buffers (nil allocates a private
// Scratch). A Problem is read-only under Solve, so any number of
// goroutines may solve the same instance concurrently as long as each brings
// its own Scratch. Solution.X aliases sc's buffers and is valid only until
// sc's next solve; callers that retain it must copy.
func (p *Problem) Solve(sc *Scratch) (Solution, error) {
	if sc == nil {
		sc = &Scratch{}
	}
	m := len(p.cons)
	if m == 0 {
		// Unconstrained: minimum of cᵀx with x ≥ 0 is 0 unless some c < 0.
		for _, c := range p.obj {
			if c < -eps {
				return Solution{Status: unbounded}, nil
			}
		}
		x := growF(&sc.x, p.numVars)
		for i := range x {
			x[i] = 0
		}
		return Solution{Status: Optimal, X: x}, nil
	}
	if m > maxSize || p.numVars > maxSize*4 {
		return Solution{}, fmt.Errorf("%w: %d rows × %d vars", errTooLarge, m, p.numVars)
	}

	// Column layout: [structural | slack/surplus | artificial].
	nStruct := p.numVars
	nSlack := 0
	nArt := 0
	for _, c := range p.cons {
		op := c.Op
		if c.RHS < 0 {
			// Normalizing flips the operator.
			op = flipOp(op)
		}
		switch op {
		case LE:
			nSlack++
		case GE:
			nSlack++
			nArt++
		case EQ:
			nArt++
		}
	}
	nCols := nStruct + nSlack + nArt
	t := sc.tableau(m, nCols)

	slackAt := nStruct
	artAt := nStruct + nSlack
	basis := growI(&sc.basis, m)
	artCols := sc.boolRow(nCols)
	for i, c := range p.cons {
		sign, op, rhs := 1.0, c.Op, c.RHS
		if rhs < 0 {
			sign = -1
			rhs = -rhs
			op = flipOp(op)
		}
		for _, cf := range c.Coefs {
			t.a[i][cf.Var] += sign * cf.Value
			t.mark(i, cf.Var)
		}
		t.b[i] = rhs
		switch op {
		case LE:
			t.a[i][slackAt] = 1
			t.mark(i, slackAt)
			basis[i] = slackAt
			slackAt++
		case GE:
			t.a[i][slackAt] = -1
			t.mark(i, slackAt)
			slackAt++
			t.a[i][artAt] = 1
			t.mark(i, artAt)
			basis[i] = artAt
			artCols[artAt] = true
			artAt++
		case EQ:
			t.a[i][artAt] = 1
			t.mark(i, artAt)
			basis[i] = artAt
			artCols[artAt] = true
			artAt++
		}
	}

	rc := growF(&sc.rc, nCols)

	// Phase 1: minimize the sum of artificials.
	if nArt > 0 {
		phase1 := growF(&sc.phase1, nCols)
		for j := range phase1 {
			if artCols[j] {
				phase1[j] = 1
			} else {
				phase1[j] = 0
			}
		}
		switch t.run(phase1, basis, nil, rc) {
		case unbounded:
			return Solution{}, fmt.Errorf("lp: phase 1 unbounded (internal error)")
		case iterationLimit:
			return Solution{Status: iterationLimit}, nil
		}
		if t.objective(phase1, basis) > 1e-7 {
			return Solution{Status: Infeasible}, nil
		}
		// Pivot remaining artificials out of the basis when possible.
		for i, bv := range basis {
			if !artCols[bv] {
				continue
			}
			pivoted := false
			for j := 0; j < nCols && !pivoted; j++ {
				if !artCols[j] && math.Abs(t.a[i][j]) > eps {
					t.pivot(i, j, basis)
					pivoted = true
				}
			}
			// A row with no eligible pivot is redundant; the artificial
			// stays basic at value 0, harmless as long as it cannot
			// re-enter (blocked below).
		}
	}

	// Phase 2: original objective, artificials blocked.
	blocked := artCols
	phase2 := growF(&sc.phase2, nCols)
	n := copy(phase2, p.obj)
	for j := n; j < nCols; j++ {
		phase2[j] = 0
	}
	if status := t.run(phase2, basis, blocked, rc); status != Optimal {
		return Solution{Status: status}, nil
	}
	x := growF(&sc.x, p.numVars)
	for i := range x {
		x[i] = 0
	}
	for i, bv := range basis {
		if bv < p.numVars {
			x[bv] = t.b[i]
		}
	}
	objVal := 0.0
	for j, c := range p.obj {
		objVal += c * x[j]
	}
	return Solution{Status: Optimal, Objective: objVal, X: x}, nil
}

// tableau is the simplex tableau B⁻¹A with its right-hand side. nz[i] is a
// bitset over columns that covers every non-zero cell of row i (it may also
// cover cells that have cancelled to zero), and nzCount[i] its population. A
// row update a[i] -= f·a[r] can only create non-zeros where a[r] has them, so
// pivot keeps the cover by or-ing nz[r] into nz[i]; pivot and reducedCosts
// then visit only covered columns. The terms they skip are x -= f·0, so every
// cell, reduced cost and ratio is the value the full-width loops compute and
// the pivot sequence is the same one. A row whose cover is a large share of
// the width is walked at full width instead — the plain loop is cheaper per
// column than bit extraction — so dense problems pay only the or.
type tableau struct {
	m, n    int
	a       [][]float64
	b       []float64
	nz      [][]uint64
	nzCount []int
	cols    []int // pivot's buffer: the pivot row's covered columns
}

// tableau carves an m×n zeroed tableau, with empty non-zero sets, out of the
// scratch buffers.
func (sc *Scratch) tableau(m, n int) *tableau {
	cells := growF(&sc.cells, m*n)
	clear(cells)
	words := (n + 63) / 64
	if cap(sc.nzWords) < m*words {
		sc.nzWords = make([]uint64, m*words)
	}
	nzWords := sc.nzWords[:m*words]
	clear(nzWords)
	if cap(sc.rows) < m {
		sc.rows = make([][]float64, m)
		sc.nz = make([][]uint64, m)
	}
	rows, nz := sc.rows[:m], sc.nz[:m]
	for i := 0; i < m; i++ {
		rows[i] = cells[i*n : (i+1)*n : (i+1)*n]
		nz[i] = nzWords[i*words : (i+1)*words : (i+1)*words]
	}
	nzCount := growI(&sc.nzCount, m)
	clear(nzCount)
	sc.tab = tableau{m: m, n: n, a: rows, b: growF(&sc.b, m),
		nz: nz, nzCount: nzCount, cols: growI(&sc.cols, n)[:0]}
	return &sc.tab
}

func (sc *Scratch) boolRow(n int) []bool {
	if cap(sc.artCols) < n {
		sc.artCols = make([]bool, n)
	}
	row := sc.artCols[:n]
	clear(row)
	return row
}

// mark adds column j to row i's non-zero set.
func (t *tableau) mark(i, j int) {
	w, bit := &t.nz[i][j>>6], uint64(1)<<(j&63)
	if *w&bit == 0 {
		*w |= bit
		t.nzCount[i]++
	}
}

// denseShare is the cover, as a fraction 1/denseShare of the width, from
// which a row is walked at full width.
const denseShare = 4

// dense reports whether row i is walked at full width rather than through
// its non-zero set.
func (t *tableau) dense(i int) bool { return t.nzCount[i]*denseShare >= t.n }

// reducedCosts computes c_j - c_Bᵀ B⁻¹ A_j for all columns given the
// current basis (the tableau rows are already B⁻¹A).
func (t *tableau) reducedCosts(c []float64, basis []int, out []float64) {
	copy(out, c)
	for i, bv := range basis {
		cb := c[bv]
		if cb == 0 {
			continue
		}
		row := t.a[i]
		if t.dense(i) {
			subScaled(out, row, cb)
			continue
		}
		for w, word := range t.nz[i] {
			for ; word != 0; word &= word - 1 {
				j := w<<6 | bits.TrailingZeros64(word)
				out[j] -= cb * row[j]
			}
		}
	}
}

func (t *tableau) objective(c []float64, basis []int) float64 {
	v := 0.0
	for i, bv := range basis {
		v += c[bv] * t.b[i]
	}
	return v
}

// iterationCap bounds one run's pivots. It is generous — Bland's rule takes
// over at half of it and guarantees termination — and a variable only so that
// a test can force the cap.
var iterationCap = func(m, n int) int { return 50 * (m + n) }

// afterPivot, when set by a test, observes the tableau after every pivot.
var afterPivot func(t *tableau)

// run optimizes the given objective from the current basis. blocked columns
// may not enter; rc is the caller-provided pricing buffer (len ≥ t.n).
func (t *tableau) run(c []float64, basis []int, blocked []bool, rc []float64) Status {
	rc = rc[:t.n]
	maxIter := iterationCap(t.m, t.n)
	blandAfter := maxIter / 2
	for iter := 0; iter < maxIter; iter++ {
		t.reducedCosts(c, basis, rc)
		enter := -1
		if iter < blandAfter {
			best := -eps
			for j := 0; j < t.n; j++ {
				if blocked != nil && blocked[j] {
					continue
				}
				if rc[j] < best {
					best = rc[j]
					enter = j
				}
			}
		} else {
			for j := 0; j < t.n; j++ {
				if blocked != nil && blocked[j] {
					continue
				}
				if rc[j] < -eps {
					enter = j
					break
				}
			}
		}
		if enter < 0 {
			return Optimal
		}
		// Ratio test.
		leave := -1
		best := math.Inf(1)
		for i := 0; i < t.m; i++ {
			if t.a[i][enter] > eps {
				ratio := t.b[i] / t.a[i][enter]
				if ratio < best-eps || (ratio < best+eps && (leave < 0 || basis[i] < basis[leave])) {
					best = ratio
					leave = i
				}
			}
		}
		if leave < 0 {
			return unbounded
		}
		t.pivot(leave, enter, basis)
	}
	// Not converged: the current point is neither optimal nor a bound, and
	// callers must not read it as either.
	return iterationLimit
}

// subScaled computes dst -= f·src over the full width. It and subScaledAt
// are the simplex's innermost loops; they stay out of line so that pivot's
// register pressure does not spill their counters.
//
//go:noinline
func subScaled(dst, src []float64, f float64) {
	for j, v := range src[:len(dst)] {
		dst[j] -= f * v
	}
}

// subScaledAt computes dst -= f·src on the given columns only.
//
//go:noinline
func subScaledAt(dst, src []float64, f float64, cols []int) {
	for _, j := range cols {
		dst[j] -= f * src[j]
	}
}

func (t *tableau) pivot(row, col int, basis []int) {
	rowR := t.a[row]
	inv := 1 / rowR[col]
	wide := t.dense(row)
	cols := t.cols[:0]
	if wide {
		for j := range rowR {
			rowR[j] *= inv
		}
	} else {
		for w, word := range t.nz[row] {
			for ; word != 0; word &= word - 1 {
				j := w<<6 | bits.TrailingZeros64(word)
				rowR[j] *= inv
				cols = append(cols, j)
			}
		}
	}
	t.b[row] *= inv
	rowR[col] = 1 // exact
	nzR := t.nz[row]
	for i := 0; i < t.m; i++ {
		if i == row {
			continue
		}
		rowI := t.a[i]
		f := rowI[col]
		if f == 0 {
			continue
		}
		if wide {
			subScaled(rowI, rowR, f)
		} else {
			subScaledAt(rowI, rowR, f, cols)
		}
		rowI[col] = 0 // exact
		count := 0
		for w, word := range t.nz[i] {
			word |= nzR[w]
			t.nz[i][w] = word
			count += bits.OnesCount64(word)
		}
		t.nzCount[i] = count
		t.b[i] -= f * t.b[row]
		if t.b[i] < 0 && t.b[i] > -1e-11 {
			t.b[i] = 0
		}
	}
	basis[row] = col
	if afterPivot != nil {
		afterPivot(t)
	}
}
