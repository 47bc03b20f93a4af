package solver

import (
	"slices"
	"testing"
)

// TestScanMemoMatchesDirectSums checks the block sums RepPart's scan shares
// between its candidates against the sums each candidate used to form for
// itself: every memoised range is == the entry-by-entry sum over that range,
// and the winner's modelled makespan is == what the memo-free public
// evaluation (EstimateTimes, over the materialized placement) says.
func TestScanMemoMatchesDirectSums(t *testing.T) {
	short := testing.Short() || goldenShort
	for _, pi := range pinnedInputs {
		if short && !pi.short {
			continue
		}
		in := pi.build(t)
		c, err := newCtx(in)
		if err != nil {
			t.Fatalf("%s: %v", pi.name, err)
		}
		blocks, best := RepPart{Candidates: 33}.scan(c)
		if len(c.sums) < len(blocks) {
			t.Fatalf("%s: %d ranges memoised for a winner of %d blocks", pi.name, len(c.sums), len(blocks))
		}
		for key, got := range c.sums {
			want := 0.0
			for _, h := range c.hot[key[0]:key[1]] {
				want += h
			}
			if got != want {
				t.Fatalf("%s: memoised sum of ranks [%d, %d) is %v, summed directly %v", pi.name, key[0], key[1], got, want)
			}
		}
		if direct := slices.Max(EstimateTimes(in, newPlacement(c, "rep-part", blocks))); direct != best {
			t.Fatalf("%s: scan scored its winner %v, EstimateTimes' maximum says %v", pi.name, best, direct)
		}
	}
}
