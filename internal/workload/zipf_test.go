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

// TestZipfRankAtRankBoundaries checks Rank against the formula where the
// cheap power's margin matters: at the first u (bisected over float64 bit
// patterns, which order non-negative floats) at which the formula reaches
// rank k, and 8 ulps either side, for every k in [1, 4096) (the guide's
// ranks) and 4,096 seeded ranks above — on skews whose exponent 1/(1−α) is an integer
// (0.5, 1.25, 2.0), an integer up to rounding (0.8, 0.9, 1.05, 1.2) or
// neither (1.4, where Rank evaluates Pow).
func TestZipfRankAtRankBoundaries(t *testing.T) {
	r := rng.New(62)
	one := math.Float64bits(1)
	for _, alpha := range []float64{0.5, 0.8, 0.9, 1.05, 1.2, 1.25, 1.4, 2.0} {
		for _, n := range []int64{64, 150_000, 1_000_000, 3_000_000_000} {
			z, err := NewZipf(n, alpha)
			if err != nil {
				t.Fatal(err)
			}
			ranks := make([]int64, 0, 2*guideBuckets)
			for k := int64(1); k < min(n, guideBuckets); k++ {
				ranks = append(ranks, k)
			}
			for i := 0; n > guideBuckets && i < guideBuckets; i++ {
				ranks = append(ranks, guideBuckets+int64(r.Uint64n(uint64(n-guideBuckets))))
			}
			for _, k := range ranks {
				lo, hi := uint64(0), one // invert(lo) < k; hi is the first u known to reach it
				for lo+1 < hi {
					if mid := lo + (hi-lo)/2; z.invert(math.Float64frombits(mid)) >= k {
						hi = mid
					} else {
						lo = mid
					}
				}
				for d := -8; d <= 8; d++ {
					if b := int64(hi) + int64(d); b >= 0 && uint64(b) < one {
						sameAsFormula(t, z, math.Float64frombits(uint64(b)))
					}
				}
			}
		}
	}
}

// TestZipfRankClampsOutsideUnit: a u at or past 1 is the last rank, a u at
// or below 0 the first, and NaN the first, at every skew (1.0 is the
// exponential branch; at 1.2 and above u·norm+1 goes negative past u = 1).
func TestZipfRankClampsOutsideUnit(t *testing.T) {
	for _, alpha := range []float64{0.5, 0.9, 1.0, 1.2, 1.4, 2.0} {
		z, err := NewZipf(1000, alpha)
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct {
			u    float64
			want int64
		}{
			{1, 999}, {2, 999}, {1e300, 999}, {math.Inf(1), 999},
			{0, 0}, {math.Copysign(0, -1), 0}, {-0.5, 0}, {math.Inf(-1), 0}, {math.NaN(), 0},
		} {
			if got := z.Rank(tc.u); got != tc.want {
				t.Errorf("alpha %v: Rank(%v) = %d, want %d", alpha, tc.u, got, tc.want)
			}
		}
	}
}

// FuzzZipfRank checks, for any sampler NewZipf accepts and any u, that Rank
// is the formula's rank — at u itself and, for u in [0, 1), at the edges of
// its guide slice and the last u inside it — and that a u ≥ 1 is rank n−1
// and a u ≤ 0 or NaN rank 0, without indexing past the guide; and that CDF
// at rank is, bit for bit, the math.Pow formula its short path replays.
// NewZipf must refuse exactly the parameters outside its domain. The seed
// corpus is in testdata/fuzz/FuzzZipfRank; its cdf-* seeds sit on both sides
// of |1−α| = 0.5, where Pow switches to Sqrt, and each cheap-* seed's u is
// where the formula reaches rank 5000 (the cheap power defers to it) in a
// slice the guide misses (its edges take the cheap power): exponents that
// are integers, integers up to rounding, and α = 1.2 ± 1e-10, too far off
// an integer for its bound, where Rank evaluates Pow. The u-*-n1000 seeds
// hold the clamp at u = 2 (where u·norm+1 is negative at α 1.2), +Inf and
// NaN.
func FuzzZipfRank(f *testing.F) {
	f.Fuzz(func(t *testing.T, n int64, alpha, u float64, rank int64) {
		z, err := NewZipf(n, alpha)
		valid := n > 0 && n < math.MaxInt64 && alpha > 0 && !math.IsInf(alpha, 1)
		if (err == nil) != valid {
			t.Fatalf("NewZipf(%d, %v): err %v", n, alpha, err)
		}
		if err != nil {
			return
		}
		sameAsFormula(t, z, u)
		if got := z.Rank(u); (u >= 1 && got != z.N-1) || (!(u > 0) && got != 0) {
			t.Fatalf("n %d alpha %v: Rank(%v) = %d, want it clamped", z.N, z.Alpha, u, got)
		}
		if u >= 0 && u < 1 {
			i := math.Floor(u * guideBuckets)
			lo, hi := i/guideBuckets, (i+1)/guideBuckets
			sameAsFormula(t, z, lo)
			sameAsFormula(t, z, math.Nextafter(hi, 0))
			if hi < 1 {
				sameAsFormula(t, z, hi)
			}
		}
		if !z.isLog && rank > 0 && rank < z.N {
			sameAsPow(t, z, rank)
		}
	})
}

// sameAsPow fails unless CDF(rank) is the math.Pow formula's value, bit for
// bit (NaN included).
func sameAsPow(t *testing.T, z *Zipf, rank int64) {
	got, want := z.CDF(rank), (math.Pow(float64(rank)+1, 1-z.Alpha)-1)/z.norm
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("n %d alpha %v: CDF(%d) = %v, math.Pow gives %v", z.N, z.Alpha, rank, got, want)
	}
}

// TestZipfCDFShortPathIsPow checks every rank of the benchmark harness's
// 400,000-entry table at its two skews, both of which take the short path.
func TestZipfCDFShortPathIsPow(t *testing.T) {
	for _, alpha := range []float64{0.9, 1.2} {
		z, err := NewZipf(400_000, alpha)
		if err != nil {
			t.Fatal(err)
		}
		if z.short == 0 {
			t.Fatalf("alpha %v does not take the short path", alpha)
		}
		for r := int64(1); r < z.N; r++ {
			sameAsPow(t, z, r)
		}
	}
}

var cdfSink float64

// BenchmarkZipfCDF is one sweep of rank probabilities CDF(r+1) − CDF(r) over
// the benchmark harness's 400,000 ranks at alpha 1.2, the analytic hotness
// loop of its serving workloads.
func BenchmarkZipfCDF(b *testing.B) {
	z, _ := NewZipf(400_000, 1.2)
	for i := 0; i < b.N; i++ {
		var sum float64
		for r := int64(0); r < z.N; r++ {
			sum += z.CDF(r+1) - z.CDF(r)
		}
		cdfSink = sum
	}
}
