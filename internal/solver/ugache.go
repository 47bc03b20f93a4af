package solver

// UGache is the paper's cache-policy solver (§6): the §6.2 model built at
// hotness-block granularity (§6.3) and solved to (near-)optimality. The
// original hands the block MILP to Gurobi; here the same model is solved
// exactly by the internal LP solver wherever it collapses to a
// replication-count formulation — symmetric platforms with equal capacities
// (uniform hard-wired like Server A, switch-based like Server C) — at the full
// block budget. The LP's placement is compared with the hot-replicate /
// warm-partition scan of [39] over 33 split points (RepPart), which is kept
// when it is strictly faster: one row carrying a tenth of the traffic is not
// the divisible block the LP prices. Where the LP does not answer — DGX-1's
// cube-mesh (Server B), which the paper itself could not solve exactly, or
// unequal capacities — the scan, which partitions within cliques, is the
// placement.
type UGache struct{}

// Name implements Policy.
func (UGache) Name() string { return "ugache" }

// Solve implements Policy. One solve context serves the LP and the scan; the
// scan's winner is materialized only when it is the answer.
func (UGache) Solve(in *Input) (*Placement, error) {
	c, err := newCtx(in)
	if err != nil {
		return nil, err
	}
	var lpPl *Placement
	if symmetric(in) {
		lpPl, _ = solveSymmetricLP(c) // an LP that fails leaves the scan
	}
	blocks, t := (RepPart{Candidates: 33}).scan(c)
	if lpPl != nil && maxF(lpPl.EstTimes) <= t {
		lpPl.Policy = "ugache"
		return lpPl, nil
	}
	pl := newPlacement(c, "ugache", blocks)
	if lpPl != nil {
		pl.LowerBound = lpPl.LowerBound
	}
	return pl, nil
}
