package workload

import (
	"math"
	"testing"

	"ugache/internal/rng"
)

// sameAsFormula fails unless the shipped Rank of u is the formula's rank of
// u: the guide may only ever skip work, never change an answer. (No
// t.Helper: it costs more than the draw it would annotate.)
func sameAsFormula(t *testing.T, z *Zipf, u float64) {
	got, want := z.Rank(u), z.invert(u)
	if got != want {
		t.Fatalf("n %d alpha %v: Rank(%v) = %d, the formula says %d", z.N, z.Alpha, u, got, want)
	}
	if got < 0 || got >= z.N {
		t.Fatalf("n %d alpha %v: Rank(%v) = %d outside [0, %d)", z.N, z.Alpha, u, got, z.N)
	}
}

// TestZipfRankMatchesFormula checks the guide against the formula it stands
// for on the grid of skews (1.0 is the exponential branch) and key spaces
// (3e9 is past int32) at every slice edge, at both neighbours of each edge,
// at the ends of [0, 1) and on a million seeded draws — and that the guide is
// actually used where the skew is the paper's.
func TestZipfRankMatchesFormula(t *testing.T) {
	r := rng.New(26)
	for _, alpha := range []float64{0.5, 0.8, 1.0, 1.05, 1.2, 1.4, 2.0} {
		for _, n := range []int64{1, 2, 64, 100, 150_000, 1_000_000, 3_000_000_000} {
			z, err := NewZipf(n, alpha)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i <= guideBuckets; i++ {
				edge := float64(i) / guideBuckets
				sameAsFormula(t, z, math.Nextafter(edge, -1))
				sameAsFormula(t, z, edge)
				sameAsFormula(t, z, math.Nextafter(edge, 2))
			}
			sameAsFormula(t, z, 0)
			sameAsFormula(t, z, math.Nextafter(1, 0))
			for d := 0; d < 1_000_000; d++ {
				sameAsFormula(t, z, r.Float64())
			}
			clean := 0
			for _, k := range z.guide {
				if k >= 0 {
					clean++
				}
			}
			share := float64(clean) / guideBuckets
			t.Logf("alpha %v n %d: %.1f%% of draws read the guide", alpha, n, 100*share)
			if alpha >= 1.2 && n >= 64 && share < 0.25 {
				t.Fatalf("alpha %v n %d: only %.1f%% of draws read the guide", alpha, n, 100*share)
			}
		}
	}
}

// FuzzZipfRank checks, for any sampler NewZipf accepts and any u, that Rank
// is the formula's rank — at u itself and, for u in [0, 1), at the edges of
// its guide slice and the last u inside it — and that a u outside [0, 1) or
// NaN is clamped into [0, n) instead of indexing past the guide. NewZipf
// must refuse exactly the parameters outside its domain. The seed corpus is
// in testdata/fuzz/FuzzZipfRank.
func FuzzZipfRank(f *testing.F) {
	f.Fuzz(func(t *testing.T, n int64, alpha, u float64) {
		z, err := NewZipf(n, alpha)
		valid := n > 0 && n < math.MaxInt64 && alpha > 0 && !math.IsInf(alpha, 1)
		if (err == nil) != valid {
			t.Fatalf("NewZipf(%d, %v): err %v", n, alpha, err)
		}
		if err != nil {
			return
		}
		sameAsFormula(t, z, u)
		if u >= 0 && u < 1 {
			i := math.Floor(u * guideBuckets)
			lo, hi := i/guideBuckets, (i+1)/guideBuckets
			sameAsFormula(t, z, lo)
			sameAsFormula(t, z, math.Nextafter(hi, 0))
			if hi < 1 {
				sameAsFormula(t, z, hi)
			}
		}
	})
}
