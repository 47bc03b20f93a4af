// Package workload generates the embedding access streams of the paper's
// two application families: DLR inference requests over many embedding
// tables with power-law key popularity, and GNN training batches produced
// by graph sampling. It also implements the hotness profiling ("presampling
// the first epoch", §6.1) that feeds the cache policy solver, and its check
// against batches the profile never saw.
package workload

import (
	"fmt"
	"math"

	"ugache/internal/rng"
)

// guideBuckets is how many equal slices of u ∈ [0, 1) the guide covers. It
// is a power of two, so every slice edge i/guideBuckets and the slice index
// u*guideBuckets are exact in float64.
const guideBuckets = 4096

// Zipf draws ranks in [0, N) with P(r) ∝ 1/(r+1)^alpha by inverting the
// continuous CDF: x = (u·norm+1)^(1/(1−alpha)) − 1, rank = ⌊x⌋ clamped to
// [0, N) (x = e^(u·norm) − 1 at alpha = 1). Rank 0 is the hottest key.
// The clamp is taken on u, in floating point: a u ≥ 1 (+Inf included) is
// rank N−1, a u ≤ 0 (−Inf included) rank 0, and NaN rank 0.
//
// A draw is O(1) and costs one table read for most draws: a 4096-entry guide,
// built once per sampler, holds the rank of every slice [i/4096, (i+1)/4096)
// of u that the formula maps to a single rank; the other slices (where the
// rank changes inside the slice) are marked and evaluate the formula. The
// guide returns exactly the formula's rank. x is monotone in u: u·norm+1 is
// monotone in u under round-to-nearest, and the true power (or exponential)
// is monotone in its base. Go's Pow and Exp are within a few ulps of the true
// value, and Pow's error grows only linearly with the exponent (it squares
// its way to the integer part), so on a slice the computed x lies between
// the values computed at its two edges, widened by that error. A slice is
// stored only when both edges, widened by a margin of 1e-9 relative (plus
// 1e-12 per unit of exponent), fall into one integer — a margin thousands of
// times the error bound — so every u inside it truncates to that integer.
// A stored rank holds a whole slice, so its probability is at least 1/4096
// and, ranks being ordered by probability, it is below 4096: the guide is
// 8 KiB of int16 per sampler whatever N is, and billion-entry key spaces
// still cost nothing per rank.
//
// Where the guide misses and 1/(1−α) is an integer n up to a fraction f
// (α = 1.2 gives −5.000000000000001), Rank first takes b^n by squaring, with
// b = u·norm+1 (cheapX). With ε = 2⁻⁵³ and b in [2⁻⁵³, 2⁶³], Pow and the
// squared power are each within (2|exp|+100)ε of the true power; dropping f
// scales it by e^(f·ln b), and |ln b| ≤ L, its value at the last u below 1
// (about |1−α|·ln(N+1)). So n is taken only where |f|·L ≤ 1e-12, and
// tol = 64(|exp|+64)ε + 2|f|·L bounds the gap to Pow's x relative to x+1:
// where x ± tol·(x+1) truncate to one in-range rank, Pow's x truncates to it
// too. Elsewhere, and at every other α, Rank evaluates Pow.
type Zipf struct {
	N     int64
	Alpha float64
	norm  float64
	exp   float64
	isLog bool
	short float64 // |1−α| when it is below 0.5 (CDF's short path), else 0
	guide []int16 // rank of each slice of u, or -1: evaluate the formula
	ipow  int64   // n ≠ 0: cheapX takes b^n; 0: Rank evaluates Pow
	tol   float64 // cheapX's and Pow's joint relative margin
}

// NewZipf creates a bounded Zipf sampler. n must be in [1, MaxInt64) and
// alpha finite and > 0 (the paper's synthetic datasets use 1.2 and 1.4).
func NewZipf(n int64, alpha float64) (*Zipf, error) {
	if n <= 0 || n == math.MaxInt64 {
		return nil, fmt.Errorf("workload: zipf needs 0 < n < %d, got %d", int64(math.MaxInt64), n)
	}
	if !(alpha > 0) || math.IsInf(alpha, 1) {
		return nil, fmt.Errorf("workload: zipf needs a finite alpha > 0, got %g", alpha)
	}
	z := &Zipf{N: n, Alpha: alpha}
	if math.Abs(1-alpha) < 1e-9 {
		z.isLog = true
		z.norm = math.Log(float64(n + 1))
	} else {
		z.norm = math.Pow(float64(n+1), 1-alpha) - 1
		z.exp = 1 / (1 - alpha)
		if y := math.Abs(1 - alpha); y < 0.5 {
			z.short = y
		}
		const eps = 0x1p-53 // tol and ipow: see Zipf
		whole := math.Round(z.exp)
		if drop := math.Abs(z.exp-whole) * math.Abs(math.Log(math.Nextafter(1, 0)*z.norm+1)); whole != 0 && drop <= 1e-12 {
			z.ipow, z.tol = int64(whole), 64*eps*(math.Abs(z.exp)+64)+2*drop
		}
	}
	z.buildGuide()
	return z, nil
}

// buildGuide evaluates the formula at the guideBuckets+1 slice edges and
// keeps the slices whose edges, widened by the margin, truncate to one
// in-range rank (see Zipf).
func (z *Zipf) buildGuide() {
	tol := 1e-9 + 1e-12*math.Abs(z.exp)
	z.guide = make([]int16, guideBuckets)
	prev := z.x(0)
	for i := range z.guide {
		next := z.x(float64(i+1) / guideBuckets)
		lo, hi := min(prev, next), max(prev, next)
		k := int64(lo - tol*(lo+1))
		if k < 0 || k >= z.N || k > math.MaxInt16 || k != int64(hi+tol*(hi+1)) {
			k = -1
		}
		z.guide[i] = int16(k)
		prev = next
	}
}

// Sample draws one rank.
func (z *Zipf) Sample(r *rng.Rand) int64 {
	return z.Rank(r.Float64())
}

// Rank maps one uniform variate in [0, 1) to a rank through the same
// analytic CDF inversion Sample uses. It is the deterministic form: feeding
// the same u always yields the same rank, which is what hash-derived draws
// (per-user key affinity in the open-loop generator) need. A u outside
// [0, 1), or NaN, skips the guide and is clamped (see Zipf).
func (z *Zipf) Rank(u float64) int64 {
	if u >= 0 && u < 1 {
		if k := z.guide[int(u*guideBuckets)]; k >= 0 {
			return int64(k)
		}
		if z.ipow != 0 {
			x := z.cheapX(u)
			d := z.tol * (x + 1)
			if k := int64(x - d); k == int64(x+d) && k >= 0 && k < z.N {
				return k
			}
		}
	}
	return z.invert(u)
}

// cheapX is x(u) within tol·(x+1), without math.Pow (see Zipf); it needs
// ipow ≠ 0.
func (z *Zipf) cheapX(u float64) float64 {
	b := u*z.norm + 1
	p := 1.0
	for n := max(z.ipow, -z.ipow); n > 0; n >>= 1 {
		if n&1 == 1 {
			p *= b
		}
		b *= b
	}
	if z.ipow < 0 {
		return 1/p - 1
	}
	return p - 1
}

// invert is the formula itself: the rank of u with no guide. It clamps u
// before evaluating x, because past [0, 1) x can be NaN or outside int64's
// range, and converting such a float64 to int64 is implementation-defined.
func (z *Zipf) invert(u float64) int64 {
	switch {
	case !(u > 0):
		return 0 // u ≤ 0, and NaN
	case u >= 1:
		return z.N - 1
	}
	return min(max(int64(z.x(u)), 0), z.N-1)
}

// x is the continuous inverse CDF at u, before truncation to a rank.
func (z *Zipf) x(u float64) float64 {
	if z.isLog {
		return math.Exp(u*z.norm) - 1
	}
	return math.Pow(u*z.norm+1, z.exp) - 1
}

// CDF returns the (continuous approximation of the) probability that a
// sample is < r; used to size caches analytically in tests and by hotness
// models that sum it over every rank.
//
// It is ((r+1)^(1−α) − 1)/norm, and for 0 < |1−α| < 0.5 it computes the
// power the way Go's math.Pow does, step for step, so the result is the
// same bits: Pow splits |y| into an integer part, here 0, and a fraction,
// here |y| itself, takes Exp(fraction·Log(x)), multiplies in no integer
// powers, inverts for y < 0 and scales by 2^0, which leaves the value alone
// (x = r+1 ≥ 2 and |y| < 0.5 keep it normal). Calling Exp and Log directly skips Pow's special-case switch,
// Modf, Frexp and Ldexp. At |1−α| = 0.5 Pow takes a Sqrt instead and above
// it the integer loop runs, so every other α keeps math.Pow. (The
// equivalence is with the pure-Go Pow, which every port but s390x uses.)
func (z *Zipf) CDF(rank int64) float64 {
	if rank <= 0 {
		return 0
	}
	if rank >= z.N {
		return 1
	}
	x := float64(rank)
	if z.isLog {
		return math.Log(x+1) / z.norm
	}
	if z.short > 0 {
		e := math.Exp(z.short * math.Log(x+1))
		if z.Alpha > 1 {
			e = 1 / e
		}
		return (e - 1) / z.norm
	}
	return (math.Pow(x+1, 1-z.Alpha) - 1) / z.norm
}
