package solver

// Options carries the control-plane knobs of an exact solve — how much
// parallelism to spend and when to stop — as opposed to Input, which
// describes the problem itself. The zero value means sequential, prove
// optimality.
type Options struct {
	// Workers is the branch-and-bound parallelism for exact policies
	// (0 or 1 = sequential, negative = GOMAXPROCS). Any worker count
	// returns the identical placement on a complete search.
	Workers int
	// RelGap is the relative optimality gap at which exact policies stop
	// early (0 = prove optimality). Trades placement determinism for solve
	// latency.
	RelGap float64
}

// SolveWith runs pol under opt: Exact hands both knobs to its
// branch-and-bound search, and every other policy, having nothing to
// configure, solves as Solve does.
func SolveWith(pol Policy, in *Input, opt Options) (*Placement, error) {
	if ex, ok := pol.(Exact); ok {
		return ex.solve(in, opt)
	}
	return pol.Solve(in)
}
