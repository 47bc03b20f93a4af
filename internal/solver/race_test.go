//go:build race

package solver

// Under the race detector the golden solves run their -short subset, which
// keeps serverA-400k, at two processors only: the full set takes minutes
// there, and one parallel solve of the benchmark's shape is what the
// detector looks at (ranking, rank fill and the LP beside the scan, with
// TestConcurrentSolvesShareInput running four of them at once).
func init() {
	goldenShort = true
	goldenProcs = []int{2}
}
