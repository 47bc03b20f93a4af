package solver

// Options is empty: no policy takes solve options any more. It goes with
// SolveWith once benchmark/ stops calling it.
type Options struct{}

// SolveWith solves as pol.Solve does. It goes once benchmark/ stops calling it.
func SolveWith(pol Policy, in *Input, _ Options) (*Placement, error) { return pol.Solve(in) }
