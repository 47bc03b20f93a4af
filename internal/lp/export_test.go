package lp

// What cover_test.go (package lp_test, so that it can import the solver that
// imports this package) needs of the internal test helpers.
var (
	WatchCover    = watchCover
	BlockLP       = blockLP
	RandomProblem = randomProblem
)
