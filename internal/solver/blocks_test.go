package solver

import (
	"math"
	"slices"
	"sort"
	"testing"

	"ugache/internal/platform"
	"ugache/internal/rng"
	"ugache/internal/workload"
)

// referenceLevel is the §6.3 level as the solver computed it before levels
// were precomputed: the logarithm of every entry.
func referenceLevel(h float64) int {
	if h <= 0 {
		return math.MinInt32
	}
	return int(math.Floor(math.Log2(h)))
}

// referenceBounds is the boundary construction ctx.bounds replaced: a set of
// level starts (re-derived from every entry) or quantile cuts (linear scan of
// the prefix sums), plus the mandatory cuts, sorted.
func referenceBounds(c *ctx, quantileSegs int64, cuts []int64) []int64 {
	e := c.numEntries()
	bset := map[int64]struct{}{0: {}, e: {}}
	if quantileSegs == 0 {
		cur := referenceLevel(c.in.Hotness[c.ranked[0]])
		for r := int64(1); r < e; r++ {
			if l := referenceLevel(c.in.Hotness[c.ranked[r]]); l != cur {
				bset[r] = struct{}{}
				cur = l
			}
		}
	} else if total := c.prefix[e]; total > 0 {
		r := int64(0)
		for k := int64(1); k < quantileSegs; k++ {
			target := total * float64(k) / float64(quantileSegs)
			for r < e && c.prefix[r+1] < target {
				r++
			}
			if r > 0 && r < e {
				bset[r] = struct{}{}
			}
		}
	}
	for _, cut := range cuts {
		if cut > 0 && cut < e {
			bset[cut] = struct{}{}
		}
	}
	bounds := make([]int64, 0, len(bset))
	for b := range bset {
		bounds = append(bounds, b)
	}
	sort.Slice(bounds, func(i, j int) bool { return bounds[i] < bounds[j] })
	return bounds
}

// referenceBuild is ctx.build as it stood before the rewrite, on top of
// referenceBounds; it returns the block ranges.
func referenceBuild(c *ctx, cuts []int64) [][2]int64 {
	e, n := c.numEntries(), int64(c.in.P.N)
	bounds := referenceBounds(c, 0, cuts)
	budget := c.budget
	if int64(len(bounds)-1) > budget {
		bounds = referenceBounds(c, max(budget/n, 1), cuts)
	}
	sizeCap := max(int64(math.Ceil(float64(e)*0.005)), 1)
	for {
		count := int64(0)
		for s := 0; s+1 < len(bounds); s++ {
			count += numBlocks(bounds[s+1]-bounds[s], n, sizeCap)
		}
		if count <= budget || sizeCap >= e {
			break
		}
		sizeCap *= 2
	}
	var out [][2]int64
	for s := 0; s+1 < len(bounds); s++ {
		lo, hi := bounds[s], bounds[s+1]
		size := blockSize(hi-lo, n, sizeCap)
		for b := lo; b < hi; b += size {
			out = append(out, [2]int64{b, min(b+size, hi)})
		}
	}
	return out
}

func sameBlocks(t *testing.T, what string, got []Block, want [][2]int64, c *ctx) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d blocks, reference has %d", what, len(got), len(want))
	}
	for i, b := range got {
		hot := c.mass(want[i][0], want[i][1]) / float64(want[i][1]-want[i][0])
		if b.Start != want[i][0] || b.End != want[i][1] || b.HotPerEntry != hot {
			t.Fatalf("%s: block %d is [%d, %d) hot %g, reference [%d, %d) hot %g",
				what, i, b.Start, b.End, b.HotPerEntry, want[i][0], want[i][1], hot)
		}
	}
}

// TestHotnessLevelMatchesLog2 checks the exponent-bits shortcut against the
// logarithm where they could part: every binade's edges (a power of two, one
// and a few ulps to either side, and the ends of the shortcut's mantissa
// window), subnormals, and random values.
func TestHotnessLevelMatchesLog2(t *testing.T) {
	check := func(h float64) {
		t.Helper()
		if got, want := HotnessLevel(h), referenceLevel(h); got != want {
			t.Fatalf("level of %g (%#x) = %d, floor(log2) computes %d", h, math.Float64bits(h), got, want)
		}
	}
	for _, h := range []float64{0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, math.MaxFloat64} {
		check(h)
	}
	for exp := -1074; exp <= 1023; exp++ {
		p := math.Ldexp(1, exp)
		for _, h := range []float64{p, p * (1 + 0x1p-8), p * (1 + 0x1p-8 - 0x1p-52), p * (2 - 0x1p-8), p * (2 - 0x1p-8 - 0x1p-52)} {
			check(h)
		}
		up, down := p, p
		for i := 0; i < 4; i++ {
			up, down = math.Nextafter(up, math.Inf(1)), math.Nextafter(down, 0)
			check(up)
			check(down)
		}
	}
	r := rng.New(11)
	for i := 0; i < 200_000; i++ { // positive and finite, as validate guarantees
		mant := uint64(r.Intn(1<<26))<<26 | uint64(r.Intn(1<<26))
		check(math.Float64frombits(uint64(r.Intn(0x7ff))<<52 | mant))
	}
}

// TestBuildMatchesReferenceConstruction checks the two merged-boundary
// builders against the map-and-sort constructions they replaced, block for
// block: precomputed levels, random mandatory cut sets (duplicates, out of
// range, on existing boundaries) and block budgets small enough to force the
// quantile fallback.
func TestBuildMatchesReferenceConstruction(t *testing.T) {
	r := rng.New(2025)
	platforms := []*platform.Platform{platform.ServerA(), platform.ServerB(), platform.ServerC()}
	for trial := 0; trial < 40; trial++ {
		p := platforms[r.Intn(len(platforms))]
		n := 1 + r.Intn(30000)
		h := make(workload.Hotness, n)
		for rank, e := range r.Perm(n) {
			h[e] = math.Pow(float64(rank+1), -(0.5 + 1.2*r.Float64()))
			if trial%3 == 0 {
				h[e] = math.Ceil(h[e]*64) / 64 // heavy ties, levels that are whole plateaus
			}
		}
		for i := r.Intn(n/5 + 1); i > 0; i-- {
			h[r.Intn(n)] = 0
		}
		in := &Input{P: p, Hotness: h, EntryBytes: 64, Capacity: make([]int64, p.N)}
		if trial%4 == 1 {
			in.BlockBudget = 1 + r.Intn(40) // below the level count: quantile fallback
		}
		c, err := newCtx(in)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := append([]int64{0}, append(c.levels, int64(n))...), referenceBounds(c, 0, nil); !slices.Equal(got, want) {
			t.Fatalf("trial %d: %d level boundaries, reference has %d", trial, len(got), len(want))
		}
		for set := 0; set < 6; set++ {
			var cuts []int64
			for i := r.Intn(p.N + 2); i > 0; i-- {
				cuts = append(cuts, int64(r.Intn(n+3))-1)
			}
			if set == 1 && len(c.levels) > 0 {
				cuts = append(cuts, c.levels[0], c.levels[0])
			}
			sameBlocks(t, "build", c.build(cuts...), referenceBuild(c, cuts), c)
		}
	}
}

// TestRepPartSingleCandidate: one candidate used to divide 0 by 0 — every cut
// landed below zero and the policy returned a valid placement that cached
// nothing. It is the pure-partition split.
func TestRepPartSingleCandidate(t *testing.T) {
	in := testInput(t, platform.ServerA(), 20000, 1.2, 0.1)
	pl := mustSolve(t, RepPart{Candidates: 1}, in)
	for g, used := range pl.CapacityUsed() {
		if used == 0 {
			t.Fatalf("gpu %d caches nothing: %v", g, pl.CapacityUsed())
		}
	}
	part := mustSolve(t, Partition{}, in)
	if got, want := maxF(pl.EstTimes), maxF(part.EstTimes); got != want {
		t.Fatalf("single-candidate rep-part estimates %g, partition %g", got, want)
	}
}
