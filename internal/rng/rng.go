// Package rng provides deterministic pseudo-random number generation for the
// whole repository. Every experiment in this codebase must be reproducible
// bit-for-bit across runs, so nothing may use math/rand's global state or wall
// clocks; instead components derive independent, seeded streams from this
// package.
//
// The generator is xoshiro256**, seeded through splitmix64 as recommended by
// its authors. Independent sub-streams are derived with Split, which hashes a
// label into the seed so that adding a new consumer never perturbs the
// sequences seen by existing ones.
package rng

import (
	"math"
	"math/bits"
)

// splitmix64 advances the given state and returns the next 64-bit output.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Rand is a deterministic xoshiro256** generator. The zero value is not
// usable; construct with New or Split.
type Rand struct {
	s [4]uint64
}

// New returns a generator seeded from the given seed. Distinct seeds yield
// statistically independent sequences.
func New(seed uint64) *Rand {
	var r Rand
	sm := seed
	for i := range r.s {
		r.s[i] = splitmix64(&sm)
	}
	// xoshiro must not start from the all-zero state.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	return &r
}

// Split derives an independent generator from r and a label. The parent
// stream is not advanced, so the derived stream depends only on the parent's
// seed and the label.
func (r *Rand) Split(label string) *Rand {
	h := uint64(1469598103934665603) // FNV-64 offset basis
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= 1099511628211
	}
	// Mix the parent's state without consuming from it.
	h ^= bits.RotateLeft64(r.s[0], 17) ^ bits.RotateLeft64(r.s[2], 43)
	return New(h)
}

// Uint64 returns the next value in the sequence.
func (r *Rand) Uint64() uint64 {
	s := &r.s
	result := bits.RotateLeft64(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = bits.RotateLeft64(s[3], 45)
	return result
}

// Uint64n returns a uniform value in [0, n). It panics if n == 0.
func (r *Rand) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n with n == 0")
	}
	// Lemire's multiply-shift rejection method.
	hi, lo := bits.Mul64(r.Uint64(), n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			hi, lo = bits.Mul64(r.Uint64(), n)
		}
	}
	return hi
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with n <= 0")
	}
	return int(r.Uint64n(uint64(n)))
}

// Float64 returns a uniform value in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Exp returns an exponentially distributed value with rate 1, via inversion.
func (r *Rand) Exp() float64 {
	u := r.Float64()
	// Guard against log(0).
	for u == 0 {
		u = r.Float64()
	}
	return -math.Log(u)
}

// Perm returns a random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.shuffleInts(p)
	return p
}

// shuffleInts shuffles s in place (Fisher–Yates).
func (r *Rand) shuffleInts(s []int) {
	for i := len(s) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		s[i], s[j] = s[j], s[i]
	}
}

// Shuffle shuffles n elements using the provided swap function.
func (r *Rand) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}
