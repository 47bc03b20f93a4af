package lp_test

import (
	"math"
	"testing"

	"ugache/internal/lp"
	"ugache/internal/platform"
	"ugache/internal/rng"
	"ugache/internal/solver"
	"ugache/internal/workload"
)

// serverA400k is the benchmark's ServerA solve input (benchmark/inputs.go,
// golden_test.go's "serverA-400k"): 400 000 entries, Zipf(1.2) ranks scattered
// by a seeded permutation, per-batch presence hotness, cache ratio 0.10.
func serverA400k(t *testing.T) *solver.Input {
	const n = 400_000
	z, err := workload.NewZipf(n, 1.2)
	if err != nil {
		t.Fatal(err)
	}
	perm := rng.New(42).Split("key-permutation").Perm(n)
	h := make(workload.Hotness, n)
	for r := int64(0); r < n; r++ {
		p := z.CDF(r+1) - z.CDF(r)
		h[perm[r]] = -math.Expm1(8192 * math.Log1p(-p))
	}
	p := platform.ServerA()
	caps := make([]int64, p.N)
	for g := range caps {
		caps[g] = n / 10
	}
	return &solver.Input{P: p, Hotness: h, EntryBytes: 128, Capacity: caps}
}

// TestNonZeroSetsCoverEveryPivot checks, after every pivot of each solve, the
// invariant the sparse loops rest on: a row's non-zero set covers every
// non-zero cell of the row (and its count is the set's population). The first
// case is the policy solve's own LP on the benchmark's ServerA input, reached
// through the shipped policy; the others put single-variable bound rows, dense
// rows and rows that cross from sparse to dense through the same check.
func TestNonZeroSetsCoverEveryPivot(t *testing.T) {
	bounded := func(p *lp.Problem, bounds []lp.Constraint) func(*testing.T) {
		return func(t *testing.T) {
			for _, bd := range bounds {
				if err := p.AddConstraint(bd.Coefs, bd.Op, bd.RHS); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := p.Solve(nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	bound := func(v int, op lp.Op, rhs float64) lp.Constraint {
		return lp.Constraint{Coefs: []lp.Coef{{Var: v, Value: 1}}, Op: op, RHS: rhs}
	}
	cases := []struct {
		name      string
		minPivots int
		solve     func(t *testing.T)
	}{
		{"serverA-400k policy LP", 200, func(t *testing.T) {
			if _, err := (solver.UGache{}).Solve(serverA400k(t)); err != nil {
				t.Fatal(err)
			}
		}},
		{"block LP under bounds", 30, bounded(lp.BlockLP(t, 40, 4),
			[]lp.Constraint{bound(3, lp.LE, 0.5), bound(11, lp.GE, 0.25), bound(17, lp.EQ, 0)})},
		{"8-GPU block LP", 30, bounded(lp.BlockLP(t, 30, 8), nil)},
		{"dense rows", 3, bounded(lp.RandomProblem(t, rng.New(5), 12, 9), nil)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pivots := lp.WatchCover(t)
			tc.solve(t)
			if *pivots < tc.minPivots {
				t.Fatalf("only %d pivots checked, expected at least %d", *pivots, tc.minPivots)
			}
		})
	}
}
