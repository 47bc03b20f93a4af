package solver

import (
	"fmt"
	"math"

	"ugache/internal/lp"
	"ugache/internal/milp"
	"ugache/internal/platform"
)

// blockModel is the §6.2 block-granularity a/s/z formulation shared by
// OptimalLP's general (fractional) path and the Exact branch-and-bound
// policy:
//
//	min z
//	s.t. Σ_j a[b][i][j] = 1    over reachable j        (each reader sourced)
//	     s[b][j] ≥ a[b][i][j]  for GPU sources         (access needs storage)
//	     s[b][j] ≤ 1
//	     Σ_b n_b·s[b][j] ≤ cap_j                       (capacity)
//	     z ≥ Σ_b bytes_b·invEff[i][j]·a[b][i][j]       (per-link time)
//	     z ≥ Σ_{b,j} bytes_b·packCost[i][j]·a[b][i][j] (per-reader packing)
//
// Coefficients are rescaled so the all-host makespan is O(1) (raw
// seconds-per-byte sums can sit below the simplex pivot tolerance);
// objective values divide by scale to come back to seconds.
type blockModel struct {
	prob   *lp.Problem
	blocks []Block
	m      *costModel
	g      int
	srcs   int
	nb     int
	scale  float64
}

func (bm *blockModel) av(b, i, j int) int { return (b*bm.g+i)*bm.srcs + j }
func (bm *blockModel) sv(b, j int) int    { return bm.nb*bm.g*bm.srcs + b*bm.g + j }
func (bm *blockModel) zVar() int          { return bm.nb*bm.g*bm.srcs + bm.nb*bm.g }

// buildBlockModel constructs the LP over the given blocks. The blocks slice
// is referenced, not copied; callers realize solutions into it afterwards.
func buildBlockModel(in *Input, c *ctx, blocks []Block) (*blockModel, error) {
	g := in.P.N
	srcs := in.P.NumSources()
	m := c.m
	nb := len(blocks)
	totalBytes := c.mass(0, c.numEntries()) * float64(in.EntryBytes)
	scale := 1.0
	if hostInv := m.invEff[0][int(in.fallback())]; totalBytes > 0 && hostInv > 0 {
		scale = 1 / (totalBytes * hostInv)
	}
	bm := &blockModel{blocks: blocks, m: m, g: g, srcs: srcs, nb: nb, scale: scale}

	obj := make([]float64, bm.zVar()+1)
	obj[bm.zVar()] = 1
	prob, err := lp.NewProblem(bm.zVar()+1, obj)
	if err != nil {
		return nil, err
	}
	bm.prob = prob

	for b := 0; b < nb; b++ {
		for i := 0; i < g; i++ {
			// Σ_j a = 1 over reachable sources.
			var coefs []lp.Coef
			for j := 0; j < srcs; j++ {
				if math.IsInf(m.invEff[i][j], 1) {
					continue // unconnected: variable pruned (paper §6.2)
				}
				coefs = append(coefs, lp.Coef{Var: bm.av(b, i, j), Value: 1})
			}
			if err := prob.AddConstraint(coefs, lp.EQ, 1); err != nil {
				return nil, err
			}
			// s ≥ a for GPU sources.
			for j := 0; j < g; j++ {
				if math.IsInf(m.invEff[i][j], 1) {
					continue
				}
				if err := prob.AddConstraint([]lp.Coef{
					{Var: bm.sv(b, j), Value: 1}, {Var: bm.av(b, i, j), Value: -1},
				}, lp.GE, 0); err != nil {
					return nil, err
				}
			}
		}
		// s ≤ 1.
		for j := 0; j < g; j++ {
			if err := prob.AddConstraint([]lp.Coef{{Var: bm.sv(b, j), Value: 1}}, lp.LE, 1); err != nil {
				return nil, err
			}
		}
	}
	// Capacity per GPU.
	for j := 0; j < g; j++ {
		coefs := make([]lp.Coef, 0, nb)
		for b := 0; b < nb; b++ {
			coefs = append(coefs, lp.Coef{Var: bm.sv(b, j), Value: float64(blocks[b].Entries())})
		}
		if err := prob.AddConstraint(coefs, lp.LE, float64(in.Capacity[j])); err != nil {
			return nil, err
		}
	}
	// Time bounds: z ≥ t_i^j (link) and z ≥ packing_i.
	for i := 0; i < g; i++ {
		packCoefs := []lp.Coef{{Var: bm.zVar(), Value: 1}}
		for j := 0; j < srcs; j++ {
			if math.IsInf(m.invEff[i][j], 1) {
				continue
			}
			coefs := []lp.Coef{{Var: bm.zVar(), Value: 1}}
			for b := 0; b < nb; b++ {
				bytes := blocks[b].Mass() * float64(in.EntryBytes) * scale
				coefs = append(coefs, lp.Coef{Var: bm.av(b, i, j), Value: -bytes * m.invEff[i][j]})
				packCoefs = append(packCoefs, lp.Coef{Var: bm.av(b, i, j), Value: -bytes * m.packCost[i][j]})
			}
			if err := prob.AddConstraint(coefs, lp.GE, 0); err != nil {
				return nil, err
			}
		}
		if err := prob.AddConstraint(packCoefs, lp.GE, 0); err != nil {
			return nil, err
		}
	}
	return bm, nil
}

// integerVars lists every reachable access variable and every storage
// variable — the binary decisions of the exact model. z stays continuous.
func (bm *blockModel) integerVars() []int {
	ints := make([]int, 0, bm.nb*bm.g*(bm.srcs+1))
	for b := 0; b < bm.nb; b++ {
		for i := 0; i < bm.g; i++ {
			for j := 0; j < bm.srcs; j++ {
				if math.IsInf(bm.m.invEff[i][j], 1) {
					continue
				}
				ints = append(ints, bm.av(b, i, j))
			}
		}
		for j := 0; j < bm.g; j++ {
			ints = append(ints, bm.sv(b, j))
		}
	}
	return ints
}

// Exact solves the block model with integral storage and access decisions
// by branch and bound — the stand-in for the paper's Gurobi MILP (§6.2),
// which the paper itself only runs on reduced instances for the Fig. 16
// optimality study. Unlike OptimalLP's rounded realization, the returned
// placement realizes the MILP solution exactly, so the modelled makespan
// equals the MILP objective and LowerBound is a true optimality
// certificate (equal to the makespan on complete solves).
//
// SolveWith hands the search its Options (workers, relative gap).
type Exact struct {
	// MaxBlocks caps the quantile block count (0 = Input.BlockBudget if
	// that is smaller than 10, else 10). Each block adds G·srcs binary
	// access plus G binary storage variables, so the search grows
	// exponentially with it — keep instances reduced, as the paper does.
	MaxBlocks int
}

// Name implements Policy.
func (Exact) Name() string { return "exact" }

// Solve implements Policy under the zero Options (sequential, prove
// optimality).
func (ex Exact) Solve(in *Input) (*Placement, error) { return ex.solve(in, Options{}) }

func (ex Exact) solve(in *Input, opt Options) (*Placement, error) {
	c, err := newCtx(in)
	if err != nil {
		return nil, err
	}
	maxBlocks := ex.MaxBlocks
	if maxBlocks <= 0 {
		maxBlocks = 10
		if in.BlockBudget > 0 && in.BlockBudget < maxBlocks {
			maxBlocks = in.BlockBudget
		}
	}
	blocks := c.buildQuantile(maxBlocks)
	bm, err := buildBlockModel(in, c, blocks)
	if err != nil {
		return nil, err
	}
	sol, err := milp.Solve(bm.prob, bm.integerVars(), milp.Options{Workers: opt.Workers, RelGap: opt.RelGap})
	if err != nil {
		return nil, fmt.Errorf("solver: exact MILP: %w", err)
	}
	if sol.Status != lp.Optimal {
		return nil, fmt.Errorf("solver: exact MILP %v (complete=%v, %d nodes)",
			sol.Status, sol.Complete, sol.Nodes)
	}
	// Realize the integral solution exactly: store where s = 1, read from
	// the j with a = 1.
	for b := 0; b < bm.nb; b++ {
		blk := &blocks[b]
		for j := 0; j < bm.g; j++ {
			blk.Store[j] = sol.X[bm.sv(b, j)] > 0.5
		}
		for i := 0; i < bm.g; i++ {
			for j := 0; j < bm.srcs; j++ {
				if math.IsInf(bm.m.invEff[i][j], 1) {
					continue
				}
				if sol.X[bm.av(b, i, j)] > 0.5 {
					blk.Access[i] = platform.SourceID(j)
					break
				}
			}
		}
	}
	pl := newPlacement(c, "exact", blocks)
	pl.LowerBound = sol.Bound / bm.scale
	pl.SolveNodes = int64(sol.Nodes)
	return pl, nil
}
