package lp

import "math"

// referenceSolve is the solver as it was before the tableau learned where its
// zeros are — the same two-phase method, pricing, ratio test and tolerances,
// every loop at full width, nothing reused between calls. It exists only for
// the tests: the shipped tableau must reproduce its status, objective and
// point bit for bit.
func referenceSolve(p *Problem) Solution {
	type row struct {
		coefs []Coef
		op    Op
		rhs   float64
	}
	var rows []row
	for _, c := range p.cons {
		rows = append(rows, row{c.Coefs, c.Op, c.RHS})
	}
	m := len(rows)
	if m == 0 {
		for _, c := range p.obj {
			if c < -eps {
				return Solution{Status: unbounded}
			}
		}
		return Solution{Status: Optimal, X: make([]float64, p.numVars)}
	}
	nSlack, nArt := 0, 0
	for i := range rows {
		r := &rows[i]
		if r.rhs < 0 {
			r.rhs, r.op = -r.rhs, flipOp(r.op)
			flipped := make([]Coef, len(r.coefs))
			for k, cf := range r.coefs {
				flipped[k] = Coef{cf.Var, -1 * cf.Value}
			}
			r.coefs = flipped
		}
		switch r.op {
		case LE:
			nSlack++
		case GE:
			nSlack++
			nArt++
		case EQ:
			nArt++
		}
	}
	n := p.numVars + nSlack + nArt
	a := make([][]float64, m)
	b := make([]float64, m)
	basis := make([]int, m)
	art := make([]bool, n)
	slackAt, artAt := p.numVars, p.numVars+nSlack
	for i, r := range rows {
		a[i] = make([]float64, n)
		for _, cf := range r.coefs {
			a[i][cf.Var] += cf.Value
		}
		b[i] = r.rhs
		if r.op != EQ {
			a[i][slackAt] = 1
			basis[i] = slackAt
			if r.op == GE {
				a[i][slackAt] = -1
			}
			slackAt++
		}
		if r.op != LE {
			a[i][artAt], art[artAt], basis[i] = 1, true, artAt
			artAt++
		}
	}

	pivot := func(row, col int) {
		inv := 1 / a[row][col]
		for j := range a[row] {
			a[row][j] *= inv
		}
		b[row] *= inv
		a[row][col] = 1
		for i := range a {
			f := a[i][col]
			if i == row || f == 0 {
				continue
			}
			for j := range a[i] {
				a[i][j] -= f * a[row][j]
			}
			a[i][col] = 0
			b[i] -= f * b[row]
			if b[i] < 0 && b[i] > -1e-11 {
				b[i] = 0
			}
		}
		basis[row] = col
	}
	rc := make([]float64, n)
	run := func(c []float64, blocked []bool) Status {
		maxIter := iterationCap(m, n)
		for iter := 0; iter < maxIter; iter++ {
			copy(rc, c)
			for i, bv := range basis {
				if cb := c[bv]; cb != 0 {
					for j := range rc {
						rc[j] -= cb * a[i][j]
					}
				}
			}
			enter, best := -1, -eps
			for j := range rc {
				if blocked != nil && blocked[j] {
					continue
				}
				if iter >= maxIter/2 { // Bland
					if rc[j] < -eps {
						enter = j
						break
					}
				} else if rc[j] < best {
					best, enter = rc[j], j
				}
			}
			if enter < 0 {
				return Optimal
			}
			leave, bestRatio := -1, math.Inf(1)
			for i := range a {
				if a[i][enter] > eps {
					ratio := b[i] / a[i][enter]
					if ratio < bestRatio-eps || (ratio < bestRatio+eps && (leave < 0 || basis[i] < basis[leave])) {
						bestRatio, leave = ratio, i
					}
				}
			}
			if leave < 0 {
				return unbounded
			}
			pivot(leave, enter)
		}
		return iterationLimit
	}

	if nArt > 0 {
		phase1 := make([]float64, n)
		for j := range phase1 {
			if art[j] {
				phase1[j] = 1
			}
		}
		switch run(phase1, nil) {
		case unbounded:
			panic("reference: phase 1 unbounded")
		case iterationLimit:
			return Solution{Status: iterationLimit}
		}
		infeas := 0.0
		for i, bv := range basis {
			infeas += phase1[bv] * b[i]
		}
		if infeas > 1e-7 {
			return Solution{Status: Infeasible}
		}
		for i, bv := range basis {
			if !art[bv] {
				continue
			}
			for j := 0; j < n; j++ {
				if !art[j] && math.Abs(a[i][j]) > eps {
					pivot(i, j)
					break
				}
			}
		}
	}
	phase2 := make([]float64, n)
	copy(phase2, p.obj)
	if status := run(phase2, art); status != Optimal {
		return Solution{Status: status}
	}
	x := make([]float64, p.numVars)
	for i, bv := range basis {
		if bv < p.numVars {
			x[bv] = b[i]
		}
	}
	return Solution{Status: Optimal, Objective: p.ObjectiveValue(x), X: x}
}

// ObjectiveValue evaluates cᵀx for a candidate point (len(x) must equal
// NumVars): the reference solver's objective.
func (p *Problem) ObjectiveValue(x []float64) float64 {
	v := 0.0
	for j, c := range p.obj {
		v += c * x[j]
	}
	return v
}

// Feasible reports whether x satisfies every constraint within tol (scaled
// by the row's magnitude): the fuzz oracle's check of a returned point.
func (p *Problem) Feasible(x []float64, tol float64) bool {
	if len(x) != p.numVars {
		return false
	}
	for _, c := range p.cons {
		lhs := 0.0
		for _, cf := range c.Coefs {
			lhs += cf.Value * x[cf.Var]
		}
		slack := tol * (1 + math.Abs(c.RHS))
		switch c.Op {
		case LE:
			if lhs > c.RHS+slack {
				return false
			}
		case GE:
			if lhs < c.RHS-slack {
				return false
			}
		case EQ:
			if math.Abs(lhs-c.RHS) > slack {
				return false
			}
		}
	}
	return true
}
