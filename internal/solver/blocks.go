package solver

import (
	"math"
	"slices"
	"sort"
	"sync"

	"ugache/internal/par"
	"ugache/internal/platform"
	"ugache/internal/workload"
)

// ctx is the shared per-solve state, built once per top-level solve: the
// validated input, its cost model, the hotness ranking in both directions,
// the rank-ordered hotness with its prefix sums, and the log2-level
// boundaries. Building it is the solve's only per-entry work (a radix rank
// and one O(E) fill, both on up to GOMAXPROCS goroutines, then one serial
// prefix-sum pass); policies then build blocks and score candidates from it
// at block granularity.
type ctx struct {
	in     *Input
	m      *costModel
	budget int64     // block budget build works to
	ranked []int32   // rank -> entry; every placement of this solve shares it as ByRank
	rankOf []int32   // entry -> rank; shared as Rank
	hot    []float64 // rank -> hotness
	prefix []float64 // prefix[r] = Σ hotness of ranks [0, r)
	levels []int64   // ascending ranks in (0, E) where floor(log2(hotness)) changes
	// sums memoises rangeSum: candidates of one solve share most of their
	// blocks, so each distinct rank range is summed once. It is a plain map:
	// a branch of the solve that runs beside another takes a fork.
	sums map[[2]int64]float64
}

// rankers recycles the ranking's sort buffers (32 bytes per entry) between
// solves; a refresh re-solve ranks a vector the size of the last one.
var rankers = sync.Pool{New: func() any { return new(workload.Ranker) }}

// minRanksPerWorker is the fewest ranks newCtx's fill hands one goroutine: a
// start (~1 µs) is under 1 % of their time, and small solves fill inline.
const minRanksPerWorker = 1 << 15

func newCtx(in *Input) (*ctx, error) {
	if err := in.validate(); err != nil {
		return nil, err
	}
	n := len(in.Hotness)
	c := &ctx{in: in, m: newCostModel(in), budget: int64(in.blockBudget()),
		ranked: make([]int32, n), rankOf: make([]int32, n),
		hot: make([]float64, n), prefix: make([]float64, n+1),
		sums: make(map[[2]int64]float64)}
	rk := rankers.Get().(*workload.Ranker)
	defer rankers.Put(rk)
	ranking := rk.Rank(in.Hotness)
	// The rank arrays and the level boundaries fill from rank ranges, whose
	// boundaries join in rank order. The prefix sums stay one serial pass, so
	// their additions keep their order.
	workers := par.Workers(n, minRanksPerWorker)
	levels := make([][]int64, workers)
	par.Ranges(n, workers, func(w, lo, hi int) {
		levels[w] = c.fill(ranking, lo, hi)
	})
	c.levels = slices.Concat(levels...)
	sum := 0.0
	for r, h := range c.hot {
		sum += h
		c.prefix[r+1] = sum
	}
	return c, nil
}

// fill writes ranks [lo, hi) of ranking into the rank arrays and returns the
// ranks among them where the hotness level changes from the rank before.
func (c *ctx) fill(ranking []workload.RankedEntry, lo, hi int) []int64 {
	var levels []int64
	level := 0
	if lo > 0 {
		level = hotnessLevel(ranking[lo-1].Hotness())
	}
	for r := lo; r < hi; r++ {
		k := ranking[r]
		h := k.Hotness()
		c.ranked[r], c.rankOf[k.Entry], c.hot[r] = int32(k.Entry), int32(r), h
		if l := hotnessLevel(h); l != level {
			if r > 0 {
				levels = append(levels, int64(r))
			}
			level = l
		}
	}
	return levels
}

// hotnessLevel is the §6.3 log-scale level floor(log2(h)) exactly as
// math.Floor(math.Log2(h)) computes it (rounding quirks just under a power
// of two included — block boundaries depend on it). A normal h whose
// mantissa is not within 2^-8 of either end of its binade has log2 at least
// 0.0028 away from an integer, far beyond Log2's rounding error, so the
// level is the exponent field; only the rest pays for the logarithm.
func hotnessLevel(h float64) int {
	if h <= 0 {
		return math.MinInt32
	}
	bits := math.Float64bits(h)
	if exp, top := int(bits>>52), byte(bits>>44); exp != 0 && top != 0 && top != 0xff {
		return exp - 1023
	}
	return int(math.Floor(math.Log2(h)))
}

// mass returns the hotness mass of rank range [start, end).
func (c *ctx) mass(start, end int64) float64 {
	return c.prefix[end] - c.prefix[start]
}

// rangeSum returns the hotness of rank range [start, end) summed entry by
// entry in rank order — the sum EstimateTimes forms for a block, which mass's
// prefix difference only approximates to a few ulps.
func (c *ctx) rangeSum(start, end int64) float64 {
	key := [2]int64{start, end}
	sum, ok := c.sums[key]
	if !ok {
		for _, h := range c.hot[start:end] {
			sum += h
		}
		c.sums[key] = sum
	}
	return sum
}

// fork returns a context that shares c's read-only state and has a memo of
// its own, for a branch of the solve that runs beside c's.
func (c *ctx) fork() *ctx {
	f := *c
	f.sums = make(map[[2]int64]float64)
	return &f
}

// numEntries returns the entry count.
func (c *ctx) numEntries() int64 { return int64(len(c.ranked)) }

// bounds merges ascending interior boundaries with the mandatory cuts into
// the sorted, duplicate-free segment boundaries of [0, E].
func (c *ctx) bounds(interior, cuts []int64) []int64 {
	e := c.numEntries()
	cs := make([]int64, 0, len(cuts))
	for _, cut := range cuts {
		if cut > 0 && cut < e {
			cs = append(cs, cut)
		}
	}
	slices.Sort(cs)
	out := append(make([]int64, 0, len(interior)+len(cs)+2), 0)
	for i, j := 0, 0; i < len(interior) || j < len(cs); {
		var v int64
		if j == len(cs) || (i < len(interior) && interior[i] <= cs[j]) {
			v, i = interior[i], i+1
		} else {
			v, j = cs[j], j+1
		}
		if v != out[len(out)-1] {
			out = append(out, v)
		}
	}
	return append(out, e)
}

// build batches ranks into hotness blocks per §6.3 — log-scale levels, fine
// splitting with a 0.5% size cap and at least N blocks per level — while
// honouring the given mandatory cut points (policies cut at capacity
// boundaries so a block never straddles a cache edge). If the block budget
// would be exceeded, the size cap doubles until it fits. The cost is
// O(levels + blocks), independent of the entry count.
func (c *ctx) build(cuts ...int64) []Block {
	e := c.numEntries()
	n := int64(c.in.P.N)

	// Segment boundaries: level starts plus mandatory cuts.
	bounds := c.bounds(c.levels, cuts)

	budget := c.budget
	// A budget below the level count cannot be met by size capping alone;
	// fall back to at most budget/N equal-hotness-mass segments (so that
	// after the ≥N fine-splitting the block count still fits), still merged
	// with the mandatory cuts, so tiny exact models stay tiny.
	if int64(len(bounds)-1) > budget {
		bounds = c.bounds(c.quantileCuts(max(budget/n, 1)), cuts)
	}
	sizeCap := int64(math.Ceil(float64(e) * 0.005))
	if sizeCap < 1 {
		sizeCap = 1
	}
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

	var blocks []Block
	for s := 0; s+1 < len(bounds); s++ {
		lo, hi := bounds[s], bounds[s+1]
		size := blockSize(hi-lo, n, sizeCap)
		for b := lo; b < hi; b += size {
			end := b + size
			if end > hi {
				end = hi
			}
			blocks = append(blocks, c.newBlock(b, end))
		}
	}
	return blocks
}

// quantileCuts returns the ascending ranks that split rank space into at
// most segs equal-hotness-mass segments.
func (c *ctx) quantileCuts(segs int64) []int64 {
	e := c.numEntries()
	total := c.prefix[e]
	var cuts []int64
	if total > 0 {
		r := 0
		for k := int64(1); k < segs; k++ {
			target := total * float64(k) / float64(segs)
			// prefix is non-decreasing: the first rank at or past r whose
			// inclusive mass reaches the target.
			r += sort.Search(int(e)-r, func(i int) bool { return c.prefix[r+i+1] >= target })
			if r > 0 && int64(r) < e {
				cuts = append(cuts, int64(r))
			}
		}
	}
	return cuts
}

// newFallbackAccess returns an access arrangement where every GPU reads the
// fallback tier (host, or network on clusters) — the state of an uncached
// block.
func newFallbackAccess(in *Input) []platform.SourceID {
	acc := make([]platform.SourceID, in.P.N)
	fb := in.fallback()
	for i := range acc {
		acc[i] = fb
	}
	return acc
}

func blockSize(l, n, sizeCap int64) int64 {
	size := (l + n - 1) / n // ceil(L/N): at least N blocks per segment
	if size > sizeCap {
		size = sizeCap
	}
	if size < 1 {
		size = 1
	}
	return size
}

func numBlocks(l, n, sizeCap int64) int64 {
	size := blockSize(l, n, sizeCap)
	return (l + size - 1) / size
}

// newBlock returns the uncached block over ranks [start, end).
func (c *ctx) newBlock(start, end int64) Block {
	return Block{
		Start: start, End: end,
		HotPerEntry: c.mass(start, end) / float64(end-start),
		Store:       make([]bool, c.in.P.N),
		Access:      newFallbackAccess(c.in),
	}
}
