//go:build race

package solver

// The golden solves are single-goroutine; under the race detector they run
// their -short subset (the full set takes minutes there and covers nothing
// the detector looks for).
func init() { goldenShort = true }
