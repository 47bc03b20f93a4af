package solver

import (
	"fmt"
	"math"
	"sync"

	"ugache/internal/lp"
	"ugache/internal/platform"
)

// OptimalLP is Fig. 16's reference policy: the §6.2 block model solved
// exactly by the internal LP solver (the paper hands the MILP to Gurobi). It
// has one formulation. On a symmetric input — every GPU pair alike (uniform
// hard-wired like Server A, switch-based like Server C) and equal capacities —
// the model collapses to per-block replication counts, solved at a 768-block
// budget unless the input sets one and realized as priced. Hotness blocks are
// divisible sets of interchangeable entries, so the LP loses no integrality
// gap at block granularity; LowerBound carries its objective. Any other input
// (DGX-1's cube-mesh, Server B, alone or clustered; unequal capacities) is
// refused with an error that says which pair or capacity breaks the symmetry:
// the paper, too, had no exact optimum there.
type OptimalLP struct{}

// Name implements Policy.
func (OptimalLP) Name() string { return "optimal-lp" }

// Solve implements Policy.
func (OptimalLP) Solve(in *Input) (*Placement, error) {
	c, err := newCtx(in)
	if err != nil {
		return nil, err
	}
	if err := asymmetry(in); err != nil {
		return nil, fmt.Errorf("solver: no exact LP for %s: %w", in.P.Name, err)
	}
	if in.BlockBudget == 0 {
		c.budget = 768 // finer than UGache's default: the reference policy
	}
	return solveSymmetricLP(c)
}

// asymmetry returns nil when every GPU sees an identical platform and
// capacity — the inputs the count LP answers — and otherwise says what
// differs.
func asymmetry(in *Input) error {
	for g, cap := range in.Capacity {
		if cap != in.Capacity[0] {
			return fmt.Errorf("GPU %d caches %d entries, GPU 0 %d", g, cap, in.Capacity[0])
		}
	}
	p := in.P
	for i := 0; i < p.N; i++ {
		for j := 0; j < p.N; j++ {
			if i == j {
				continue
			}
			if !p.Connected(i, j) {
				return fmt.Errorf("GPUs %d and %d share no link", i, j)
			}
			if bw, ref := p.PairBW[i][j], p.PairBW[0][1]; bw != ref {
				return fmt.Errorf("GPU %d reads GPU %d at %g GB/s, GPU 0 reads GPU 1 at %g GB/s", i, j, bw/1e9, ref/1e9)
			}
		}
	}
	return nil
}

// lpScratch recycles the simplex working set (a few MB at the full block
// budget) between solves, so that a refresh re-solve neither allocates nor
// page-faults a tableau of its own.
var lpScratch = sync.Pool{New: func() any { return new(lp.Scratch) }}

// solveSymmetricLP builds the replication-count LP:
//
//	min z
//	s.t. Σ_c x[b][c] = 1                          ∀b
//	     Σ_b n_b Σ_c x[b][c]·c/G        ≤ cap     (per-GPU, symmetric)
//	     z ≥ localBytes/localBW
//	     z ≥ remoteBytes/((G−1)·pairBW)
//	     z ≥ hostBytes/hostBW
//	     z ≥ Σ src bytes·packCost                 (packing bound)
//
// where localBytes/remoteBytes/hostBytes are linear in x.
func solveSymmetricLP(c *ctx) (*Placement, error) {
	in, m := c.in, c.m
	blocks := c.build()
	g := in.P.N
	host := int(in.fallback())

	nb := len(blocks)
	nx := nb * (g + 1)
	zVar := nx
	obj := make([]float64, nx+1)
	obj[zVar] = 1
	prob, err := lp.NewProblem(nx+1, obj)
	if err != nil {
		return nil, err
	}
	xv := func(b, cnt int) int { return b*(g+1) + cnt }

	// Per-block distribution sums to 1.
	for b := 0; b < nb; b++ {
		coefs := make([]lp.Coef, 0, g+1)
		for cnt := 0; cnt <= g; cnt++ {
			coefs = append(coefs, lp.Coef{Var: xv(b, cnt), Value: 1})
		}
		if err := prob.AddConstraint(coefs, lp.EQ, 1); err != nil {
			return nil, err
		}
	}
	// Capacity (symmetric per-GPU share c/G of each block's entries).
	capCoefs := make([]lp.Coef, 0, nb*g)
	for b := 0; b < nb; b++ {
		n := float64(blocks[b].Entries())
		for cnt := 1; cnt <= g; cnt++ {
			capCoefs = append(capCoefs, lp.Coef{Var: xv(b, cnt), Value: n * float64(cnt) / float64(g)})
		}
	}
	if err := prob.AddConstraint(capCoefs, lp.LE, float64(in.Capacity[0])); err != nil {
		return nil, err
	}
	// Time bounds. Per-byte factors for reader 0 (all readers identical).
	// The model is rescaled so the all-host objective is O(1): raw
	// coefficients (seconds per byte times hotness) can sit below the
	// simplex pivot tolerance otherwise.
	remoteSrc := 0
	if g > 1 {
		remoteSrc = 1
	}
	totalBytes := c.mass(0, c.numEntries()) * float64(in.EntryBytes)
	scale := 1.0
	if totalBytes > 0 && m.invEff[0][host] > 0 {
		scale = 1 / (totalBytes * m.invEff[0][host])
	}
	invLoc := m.invEff[0][0] * scale
	invHost := m.invEff[0][host] * scale
	packLoc := m.packCost[0][0] * scale
	packHost := m.packCost[0][host] * scale
	var invRem, packRem float64
	if g > 1 {
		invRem = m.invEff[0][remoteSrc] / float64(g-1) * scale // spread over G−1 links
		packRem = m.packCost[0][remoteSrc] * scale
	}
	addTimeBound := func(weight func(b, cnt int) float64) error {
		coefs := []lp.Coef{{Var: zVar, Value: 1}}
		for b := 0; b < nb; b++ {
			bytes := blocks[b].Mass() * float64(in.EntryBytes)
			for cnt := 0; cnt <= g; cnt++ {
				if w := weight(b, cnt); w != 0 {
					coefs = append(coefs, lp.Coef{Var: xv(b, cnt), Value: -bytes * w})
				}
			}
		}
		return prob.AddConstraint(coefs, lp.GE, 0)
	}
	localFrac := func(cnt int) float64 { return float64(cnt) / float64(g) }
	remoteFrac := func(cnt int) float64 {
		if cnt == 0 {
			return 0
		}
		return 1 - float64(cnt)/float64(g)
	}
	hostFrac := func(cnt int) float64 {
		if cnt == 0 {
			return 1
		}
		return 0
	}
	if err := addTimeBound(func(b, cnt int) float64 { return localFrac(cnt) * invLoc }); err != nil {
		return nil, err
	}
	if g > 1 {
		if err := addTimeBound(func(b, cnt int) float64 { return remoteFrac(cnt) * invRem }); err != nil {
			return nil, err
		}
	}
	if err := addTimeBound(func(b, cnt int) float64 { return hostFrac(cnt) * invHost }); err != nil {
		return nil, err
	}
	if err := addTimeBound(func(b, cnt int) float64 {
		return localFrac(cnt)*packLoc + remoteFrac(cnt)*packRem + hostFrac(cnt)*packHost
	}); err != nil {
		return nil, err
	}

	sc := lpScratch.Get().(*lp.Scratch)
	defer lpScratch.Put(sc) // sol.X is sc's until the realization below has read it
	sol, err := prob.SolveWith(sc)
	if err != nil {
		return nil, err
	}
	if sol.Status != lp.Optimal {
		return nil, fmt.Errorf("solver: optimal LP %v", sol.Status)
	}

	realized, err := realizeSymmetric(c, blocks, sol.X[:nx])
	if err != nil {
		return nil, err
	}
	pl := newPlacement(c, "optimal-lp", realized)
	pl.LowerBound = sol.Objective / scale
	return pl, nil
}

// realizeSymmetric turns the LP's count distributions (x holds G+1 shares per
// block, counts 0..G) into concrete blocks the way the LP priced them. A run
// of n entries at count c, 0 < c < G, becomes G contiguous rank strips, strip
// k stored on the c GPUs from k+offset on (cyclic): every GPU stores n·c/G of
// the run to within one entry, reads c/G of it locally and the rest from
// peers. The offset advances by one per run, so odd entries and the hotter
// leading strips even out and the strip→GPU map depends on rank position
// alone. A reader takes a remote strip from the holder it has pulled the least
// from — the model charges its busiest link, so the tally is per (reader,
// source). Counts 0 and G keep the LP's blocks. A run is a sub-block extended
// over the following ones at its count while its hotness spans no more than
// one of a §6.3 level's N blocks does (2^(1/G)): strips stay as even as one
// block's, and a size-capped cold level's many like blocks do not multiply the
// block count by G. A holder without room passes its share to the next GPU in
// cyclic order with some (cutting the strip where one fills up); when fewer
// than c have any, the realization fails rather than ship less than priced.
func realizeSymmetric(c *ctx, blocks []Block, x []float64) ([]Block, error) {
	g := c.in.P.N
	capLeft := append([]int64(nil), c.in.Capacity...)
	vol := make([]float64, g*g) // vol[i*g+j]: hotness mass reader i pulls from GPU j
	var out []Block
	runs := 0
	stripe := func(lo, hi int64, cnt int) error {
		strips := int64(1)
		if cnt > 0 && cnt < g {
			strips = int64(g) // of fewer than G entries some are empty, the rest spread over the GPUs
			runs++
		}
		for k := int64(0); k < strips; k++ {
			for s, end := lo+(hi-lo)*k/strips, lo+(hi-lo)*(k+1)/strips; s < end; {
				n, holders := end-s, make([]int, 0, cnt)
				for d := 0; d < g && len(holders) < cnt; d++ {
					if j := (runs + int(k) + d) % g; capLeft[j] > 0 {
						holders, n = append(holders, j), min(n, capLeft[j])
					}
				}
				if len(holders) < cnt {
					return fmt.Errorf("solver: ranks [%d, %d) planned on %d GPUs, %d have room", s, end, cnt, len(holders))
				}
				nb := c.newBlock(s, s+n)
				for _, j := range holders {
					nb.Store[j], nb.Access[j] = true, platform.SourceID(j)
					capLeft[j] -= n
				}
				for i := 0; i < g && cnt > 0; i++ {
					if nb.Store[i] {
						continue
					}
					src := holders[0]
					for _, j := range holders[1:] {
						if vol[i*g+j] < vol[i*g+src] {
							src = j
						}
					}
					nb.Access[i] = platform.SourceID(src)
					vol[i*g+src] += nb.Mass()
				}
				out = append(out, nb)
				s += n
			}
		}
		return nil
	}
	spread := math.Pow(2, 1/float64(g))
	lo, hi, cur := int64(0), int64(0), 0 // the pending run: ranks [lo, hi) at count cur
	for b := range blocks {
		sizes := splitCounts(blocks[b].Entries(), x[b*(g+1):(b+1)*(g+1)])
		for cnt := g; cnt >= 0; cnt-- { // the block's hotter ranks take its higher counts
			n := sizes[cnt]
			if n > 0 && (cnt != cur || cnt == 0 || cnt == g || c.hot[lo] > spread*c.hot[hi+n-1]) {
				if err := stripe(lo, hi, cur); err != nil {
					return nil, err
				}
				lo, cur = hi, cnt
			}
			hi += n
		}
	}
	err := stripe(lo, hi, cur)
	return out, err
}

// splitCounts apportions n entries across counts 0..G in proportion to dist,
// rounding the cumulative shares down from count G: the result sums to n, and
// Σ cnt·sizes[cnt] never exceeds the Σ cnt·n·dist[cnt] the LP's capacity row
// was charged. An all-zero distribution is count 0.
func splitCounts(n int64, dist []float64) []int64 {
	sizes := make([]int64, len(dist))
	total := 0.0
	for _, f := range dist {
		total += max(f, 0)
	}
	above, cum := int64(0), 0.0 // entries, and share, at counts > cnt
	for cnt := len(dist) - 1; cnt > 0 && total > 0; cnt-- {
		cum += max(dist[cnt], 0)
		upTo := min(int64(float64(n)*cum/total+1e-6), n) // the simplex leaves a whole block 0.99999999 of itself
		sizes[cnt], above = upTo-above, upTo
	}
	sizes[0] = n - above
	return sizes
}
