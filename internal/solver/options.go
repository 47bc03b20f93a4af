package solver

// Options carries the control-plane knobs of a policy solve — how much
// parallelism to spend and what to seed the search with — as opposed to
// Input, which describes the problem itself. The zero value means
// sequential, cold-started, prove optimality.
type Options struct {
	// Workers is the branch-and-bound parallelism for exact policies
	// (0 or 1 = sequential, negative = GOMAXPROCS). Any worker count
	// returns the identical placement on a complete search.
	Workers int
	// WarmStart, when non-nil, seeds the solve with a previous placement:
	// exact policies convert it into an initial incumbent so a
	// drifted-hotness re-solve prunes from the first node instead of
	// rediscovering the placement from scratch (the online refresh loop's
	// common case). Stale or infeasible warm starts are silently ignored.
	WarmStart *Placement
	// RelGap is the relative optimality gap at which exact policies stop
	// early (0 = prove optimality). Trades placement determinism for solve
	// latency.
	RelGap float64
}

// OptionedPolicy is implemented by policies whose solves accept Options;
// approximation policies (greedy, heuristics) have nothing to configure and
// only implement Policy.
type OptionedPolicy interface {
	Policy
	SolveOpt(in *Input, opt Options) (*Placement, error)
}

// SolveWith runs pol under opt when the policy supports it and falls back
// to a plain Solve otherwise, so callers (cache refresh, cmds) can thread
// Options unconditionally without type-switching on the policy.
func SolveWith(pol Policy, in *Input, opt Options) (*Placement, error) {
	if op, ok := pol.(OptionedPolicy); ok {
		return op.SolveOpt(in, opt)
	}
	return pol.Solve(in)
}
