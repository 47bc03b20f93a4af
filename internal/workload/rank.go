package workload

import (
	"math"
	"math/bits"
	"sort"
	"sync"

	"ugache/internal/par"
)

// Rank returns entry indices sorted by descending hotness (stable in index
// for ties, so results are deterministic).
func (h Hotness) Rank() []int64 {
	var rk Ranker
	idx := make([]int64, len(h))
	for r, k := range rk.Rank(h) {
		idx[r] = k.Entry
	}
	return idx
}

// RankedEntry is one position of a ranking: the entry and, packed so that
// sorting compares integers and touches no other memory, its hotness.
type RankedEntry struct {
	key   uint64 // ^Float64bits(hotness): ascending key is descending hotness
	Entry int64
}

// Hotness returns the entry's hotness (a −0 input reads back as +0).
func (e RankedEntry) Hotness() float64 { return math.Float64frombits(^e.key) }

// rankKey is v's sort key. Hotness is non-negative, so clearing the sign bit
// changes nothing but −0, which then ties with +0.
func rankKey(v float64) uint64 { return ^(math.Float64bits(v) &^ (1 << 63)) }

// The ranking's tuning.
const (
	// rankMinPerWorker is the fewest entries a ranking worker takes: a
	// goroutine start (~1 µs) is under 1 % of their time, so vectors below
	// two of them rank inline.
	rankMinPerWorker = 1 << 15
	// The top digit has bits.Len(n)−rankBucketLog bits, at most rankTopBits,
	// so a bucket averages ~2^rankBucketLog entries: its sort stays inside the
	// L1 cache, and the scatter's count table inside the L2.
	rankBucketLog = 5
	rankTopBits   = 16
	// Runs of up to rankInsertion entries are insertion sorted. A longer part
	// of a bucket splits on the top bits.Len(len)−1 of the bits it still
	// differs in (so into parts of about two entries), at least 4 of them and
	// at most 8, which bounds the depth of the splits by 64/4.
	rankInsertion = 16
	rankMaxDigit  = 8
	rankMaxDepth  = 64 / 4
)

// Ranker orders entries by descending hotness, ties by ascending index — the
// one ranking every consumer (solver, drift detector) shares.
//
// It is a radix sort in two levels. A first pass over the hotness ANDs and
// ORs the keys: bits every key shares order nothing and
// are skipped. One stable scatter on the top differing bits then splits the
// keys into buckets of about 2^rankBucketLog entries, in index order within
// each, and every bucket is sorted where it lies, inside the CPU cache:
// insertion sort when it is short, otherwise stable splits on the top bits its
// keys still differ in (a bucket of one value is already sorted), recursing
// down to insertion sort. Counting, scattering and the bucket sorts run on up
// to GOMAXPROCS goroutines, each over a contiguous share of at least
// rankMinPerWorker entries (for the bucket sorts, the buckets that start in
// that share). Every step is stable and the order (key, index) is total, so
// the ranking is the same at any worker count.
//
// A Ranker keeps its key buffer, count tables and bucket scratch, so ranking
// same-sized vectors repeatedly allocates nothing on one processor; with w > 1
// workers each of the four passes starts w−1 goroutines, which allocate their
// closures (4 allocations a ranking at w = 2, at most 8(w−1)).
// Vectors must hold fewer than 2³² entries.
type Ranker struct {
	keys   []RankedEntry
	work   []rankWorker
	starts []int // bucket d is keys[starts[d]:starts[d+1]]

	// The ranking in progress, which the passes read: a key's bucket is
	// key>>shift & mask.
	h       Hotness
	workers int
	shift   uint
	mask    uint64
	wg      sync.WaitGroup
}

// rankWorker is one worker's reused state.
type rankWorker struct {
	and, or uint64                                  // over the worker's share of the keys
	top     []int                                   // its count of each bucket, then where its next key goes
	counts  [rankMaxDepth][1 << rankMaxDigit]uint32 // a bucket's split at each depth
	scratch []RankedEntry                           // as long as its longest bucket
}

// rankPass names the parallel steps of Rank.
type rankPass int

const (
	passBounds rankPass = iota
	passCount
	passScatter
	passBuckets
)

// Rank returns h's ranking, hottest first; the result is valid until the
// next call. Hotness must be non-negative and finite (the solver validates
// this), which makes the IEEE bit pattern order the numeric order.
func (rk *Ranker) Rank(h Hotness) []RankedEntry {
	n := len(h)
	if cap(rk.keys) < n {
		rk.keys = make([]RankedEntry, n)
	}
	keys := rk.keys[:n]
	if n <= rankInsertion {
		for i, v := range h {
			keys[i] = RankedEntry{rankKey(v), int64(i)}
		}
		insertionSort(keys)
		return keys
	}
	rk.h = h
	defer func() { rk.h = nil }() // a pooled Ranker must not keep h alive
	rk.workers = par.Workers(n, rankMinPerWorker)
	for len(rk.work) < rk.workers {
		rk.work = append(rk.work, rankWorker{})
	}

	rk.run(passBounds)
	and, or := ^uint64(0), uint64(0)
	for w := range rk.work[:rk.workers] {
		and &= rk.work[w].and
		or |= rk.work[w].or
	}
	diff := and ^ or
	if diff == 0 { // every key is the same: index order
		for i := range keys {
			keys[i] = RankedEntry{and, int64(i)}
		}
		return keys
	}
	width := bits.Len64(diff) // the keys agree above bit width-1
	topBits := min(width, rankTopBits, max(1, bits.Len64(uint64(n))-rankBucketLog))
	rk.shift = uint(width - topBits)
	rk.mask = 1<<topBits - 1
	radix := 1 << topBits
	for w := range rk.work[:rk.workers] {
		if cap(rk.work[w].top) < radix {
			rk.work[w].top = make([]int, radix)
		}
		rk.work[w].top = rk.work[w].top[:radix]
	}
	if cap(rk.starts) < radix+1 {
		rk.starts = make([]int, radix+1)
	}
	rk.starts = rk.starts[:radix+1]

	rk.run(passCount)
	// Bucket d takes the keys of worker 0's share first, then worker 1's, …:
	// each worker's next slot in every bucket.
	sum := 0
	for d := range radix {
		rk.starts[d] = sum
		for w := range rk.work[:rk.workers] {
			top := rk.work[w].top
			top[d], sum = sum, sum+top[d]
		}
	}
	rk.starts[radix] = n
	rk.run(passScatter)
	rk.run(passBuckets)
	return keys
}

// run runs one pass on every worker, worker 0 on the calling goroutine.
func (rk *Ranker) run(p rankPass) {
	if rk.workers == 1 {
		rk.pass(p, 0)
		return
	}
	rk.wg.Add(rk.workers - 1)
	for w := 1; w < rk.workers; w++ {
		go func() {
			defer rk.wg.Done()
			rk.pass(p, w)
		}()
	}
	rk.pass(p, 0)
	rk.wg.Wait()
}

// pass runs worker w's share of pass p.
func (rk *Ranker) pass(p rankPass, w int) {
	n := len(rk.h)
	lo, hi := n*w/rk.workers, n*(w+1)/rk.workers
	wk := &rk.work[w]
	shift, mask := rk.shift, rk.mask
	switch p {
	case passBounds:
		and, or := ^uint64(0), uint64(0)
		for _, v := range rk.h[lo:hi] {
			k := rankKey(v)
			and &= k
			or |= k
		}
		wk.and, wk.or = and, or
	case passCount:
		top := wk.top
		clear(top)
		for _, v := range rk.h[lo:hi] {
			top[rankKey(v)>>shift&mask]++
		}
	case passScatter:
		top, keys := wk.top, rk.keys[:n]
		for i, v := range rk.h[lo:hi] {
			k := rankKey(v)
			d := k >> shift & mask
			keys[top[d]] = RankedEntry{k, int64(lo + i)}
			top[d]++
		}
	case passBuckets:
		// The buckets that start in this worker's share of the entries.
		starts := rk.starts[:len(rk.starts)-1]
		first := sort.SearchInts(starts, lo)
		last := len(starts)
		if w+1 < rk.workers {
			last = sort.SearchInts(starts, hi)
		}
		keys := rk.keys[:n]
		for d := first; d < last; d++ {
			b := keys[rk.starts[d]:rk.starts[d+1]]
			if len(b) <= rankInsertion {
				insertionSort(b)
				continue
			}
			if cap(wk.scratch) < len(b) {
				wk.scratch = make([]RankedEntry, len(b))
			}
			sortBucket(b, wk.scratch[:len(b)], &wk.counts, 0)
		}
	}
}

// sortBucket sorts b (longer than rankInsertion) by key, stably, using tmp
// (as long as b) as scratch: one stable scatter on the top bits of those b's
// keys still differ in, then the same for each part, down to insertion sort.
func sortBucket(b, tmp []RankedEntry, counts *[rankMaxDepth][1 << rankMaxDigit]uint32, depth int) {
	and, or := ^uint64(0), uint64(0)
	for _, e := range b {
		and &= e.key
		or |= e.key
	}
	diff := and ^ or
	if diff == 0 {
		return // one value: already in index order
	}
	digit := min(rankMaxDigit, bits.Len64(uint64(len(b)))-1)
	shift := uint(max(bits.Len64(diff)-digit, 0))
	mask := uint64(1)<<digit - 1
	c := counts[depth][:1<<digit]
	clear(c)
	for _, e := range b {
		c[e.key>>shift&mask]++
	}
	sum := uint32(0)
	for d, cnt := range c {
		c[d], sum = sum, sum+cnt
	}
	for _, e := range b {
		d := e.key >> shift & mask
		tmp[c[d]] = e
		c[d]++
	}
	// c[d] is now where part d ends.
	start := uint32(0)
	for _, end := range c {
		switch part := tmp[start:end]; {
		case len(part) > rankInsertion:
			sortBucket(part, b[start:end], counts, depth+1)
		case len(part) > 1:
			insertionSort(part)
		}
		start = end
	}
	copy(b, tmp)
}

// insertionSort sorts a short run by key, stably.
func insertionSort(b []RankedEntry) {
	for i := 1; i < len(b); i++ {
		e := b[i]
		j := i
		for ; j > 0 && b[j-1].key > e.key; j-- {
			b[j] = b[j-1]
		}
		b[j] = e
	}
}
