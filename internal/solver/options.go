package solver

// Options is empty: no policy takes solve options any more. ROADMAP item 1(e)
// removes it with SolveWith.
type Options struct{}

// SolveWith solves as pol.Solve does. ROADMAP item 1(e) removes it.
func SolveWith(pol Policy, in *Input, _ Options) (*Placement, error) { return pol.Solve(in) }
