package workload

import (
	"fmt"

	"ugache/internal/par"
)

// Hotness is the paper's §6.1 metric: the expected number of accesses per
// iteration for each embedding entry, indexed by key. The solver consumes
// it directly; applications may fill it by presampling (GNN: profile the
// first epoch), by degree proxy, or by online sampling (DLR).
type Hotness []float64

// ProfileBatches measures hotness by counting per-batch key *presence* over
// recorded batches — the presampling of GNNLab that §6.1 cites as sufficient
// to predict later epochs — and estimating from the counts what a batch
// outside the recording will touch (EstimatePresence). Presence (each key
// counted once per batch) rather than raw occurrence matters because the
// extractor deduplicates each batch before reading: an entry appearing 50
// times in one batch still costs one read, so its cache value saturates.
func ProfileBatches(numEntries int64, batches [][]int64) (Hotness, error) {
	counts, err := countPresence(numEntries, batches)
	if err != nil {
		return nil, err
	}
	h := make(Hotness, numEntries)
	EstimatePresence(h, counts, len(batches))
	return h, nil
}

// minKeysPerCounter is the fewest keys countPresence hands one worker. A
// worker also costs two zeroed arrays of numEntries (its counts and stamps)
// and a pass summing its counts, so it takes at least numEntries keys too.
const minKeysPerCounter = 1 << 18

// countPresence returns, per key, how many of the batches hold it. Up to
// GOMAXPROCS contiguous ranges of equal batch counts are counted into counts
// and stamps of their own, then summed over key ranges: counts are integers,
// so the sum is the one-worker count. A key outside [0, numEntries) fails
// the count; the error names the first such key in batch order.
func countPresence(numEntries int64, batches [][]int64) ([]uint32, error) {
	if numEntries <= 0 {
		return nil, fmt.Errorf("workload: numEntries must be positive")
	}
	if len(batches) == 0 {
		return nil, fmt.Errorf("workload: need at least one batch to profile")
	}
	total := int64(0)
	for _, b := range batches {
		total += int64(len(b))
	}
	workers := min(par.Workers(int(total), int(max(minKeysPerCounter, numEntries))), len(batches))
	counts := make([][]uint32, workers)
	err := par.Each(workers, workers, func(_, w int) (err error) {
		counts[w], err = countRange(numEntries, batches[len(batches)*w/workers:len(batches)*(w+1)/workers])
		return err
	})
	if err != nil {
		return nil, err
	}
	par.Ranges(int(numEntries), workers, func(_, lo, hi int) {
		sum := counts[0][lo:hi]
		for _, c := range counts[1:] {
			for k, n := range c[lo:hi] {
				sum[k] += n
			}
		}
	})
	return counts[0], nil
}

// countRange counts, per key, how many of the batches hold it, stopping at
// the first key outside [0, numEntries).
func countRange(numEntries int64, batches [][]int64) ([]uint32, error) {
	counts := make([]uint32, numEntries)
	// seenIn[k] is the stamp of the last batch k was counted in: one array
	// lookup per key instead of a set rebuilt per batch.
	seenIn := make([]uint32, numEntries)
	stamp := uint32(0)
	for _, b := range batches {
		if stamp++; stamp == 0 { // 2³² batches on: the stamps start over
			clear(seenIn)
			stamp = 1
		}
		for _, k := range b {
			if k < 0 || k >= numEntries {
				return nil, fmt.Errorf("workload: key %d outside [0, %d)", k, numEntries)
			}
			if seenIn[k] != stamp {
				seenIn[k] = stamp
				counts[k]++
			}
		}
	}
	return counts, nil
}

// The presence estimator's constants; presence_test.go measures the
// estimator they give against known rates.
const (
	// presenceLevels bounds the count levels that can take an adjusted count.
	// It only sizes the count-of-counts array: the density rule stops earlier
	// on every input tried (at level 9 on the benchmark's 441k entries).
	presenceLevels = 15
	// Level r is dense, and takes its adjusted count, while N_r and N_{r+1}
	// are both at least denseScale·(r+1)²: r* has a relative sampling error
	// near √(2/N) and moves r by about 1/r of its size, so the rule keeps the
	// error under half of what the correction is worth. Level 1 needs 64
	// entries seen once and 64 seen twice.
	denseScale = 16
	// bucketOnce is how many once-seen entries a key-range bucket holds on
	// average, which is what sizes the buckets, and the weight in entries of
	// the global ratio inside a bucket's local one.
	bucketOnce = 64
)

// EstimatePresence writes into h the hotness that presence counts predict:
// counts[k] is how many of `batches` recorded batches held key k, h[k]
// becomes key k's expected presence in a batch the recording did not see
// (len(h) == len(counts), counts[k] ≤ batches). It is the one estimator
// behind both doors to the solver, ProfileBatches and cache.HotnessSampler.
//
// A raw r/batches over-states the low counts (most once-seen entries are cold
// ones that got lucky, not entries of rate 1/batches) and says nothing about
// entries never seen. So low counts take their Good–Turing adjusted count
// r* = (r+1)·N_{r+1}/N_r, N_r being how many entries were seen r times, for
// as long as the levels are dense (denseScale), held between the level below
// and r+1 so that the levels never decrease in r; raw counts take over above.
// (r* may exceed r: where a table's tail is flat, as a long recording finds
// it, an entry seen once is worth more than one sighting.) Never-seen and
// once-seen entries take the same ratio locally: the key space is cut into
// equal buckets of about bucketOnce once-seen entries (one bucket on small
// inputs) and a bucket's levels r = 0, 1 read (r+1)·(n_{r+1} + bucketOnce·q_r)
// / (n_r + bucketOnce) from its own counts n, q_r being the global ratio a
// sparse bucket falls back on. Embedding key spaces are concatenated tables
// whose tails differ by orders of magnitude; a contiguous bucket sits mostly
// inside one table and measures that table's tail. On hashed keys every
// bucket looks like the whole and the estimate is the global one.
//
// Within a bucket the estimate is non-decreasing in the count, and everywhere
// 0 ≤ never-seen, once-seen ≤ twice-seen ≤ … ≤ 1: an entry the recording
// never saw cannot outrank one of its bucket that it did see, nor any entry
// seen twice.
func EstimatePresence(h Hotness, counts []uint32, batches int) {
	nr := countOfCounts(counts)
	// level[r] is what an entry seen r times counts for: r itself, but for
	// the dense levels 1..top. Holding level r between level r-1 and r+1 keeps
	// the levels non-decreasing wherever the dense ones end.
	var level [presenceLevels + 2]float64
	for r := range level {
		level[r] = float64(r)
	}
	top := 0
	for r := 1; r <= presenceLevels; r++ {
		if need := denseScale * (r + 1) * (r + 1); nr[r] < need || nr[r+1] < need {
			break
		}
		level[r] = min(float64(r+1), max(level[r-1], float64((r+1)*nr[r+1])/float64(nr[r])))
		top = r
	}
	// The global ratios N_1/N_0 and N_2/N_1 a bucket's levels 0 and 1 lean on.
	unseenPrior, oncePrior := 0.0, level[1]/2
	if nr[0] > 0 {
		unseenPrior = float64(nr[1]) / float64(nr[0])
	}
	inv := 1 / float64(batches)
	hot := level // hot[r] = level[r]/batches; each bucket fills in 0 and 1
	for r := range hot {
		hot[r] *= inv
	}
	width := bucketWidth(len(h), nr[1])
	for lo := 0; lo < len(h); lo += width {
		hi := min(lo+width, len(h))
		n := nr // the bucket's own count of counts
		if width < len(h) {
			n = countOfCounts(counts[lo:hi])
		}
		once := level[1]
		if top >= 1 {
			once = min(level[2], 2*(float64(n[2])+bucketOnce*oncePrior)/(float64(n[1])+bucketOnce))
		}
		unseen := min(once, (float64(n[1])+bucketOnce*unseenPrior)/(float64(n[0])+bucketOnce))
		hot[0], hot[1] = unseen*inv, once*inv
		out := h[lo:hi]
		for i, c := range counts[lo:hi] {
			if c < uint32(len(hot)) {
				out[i] = hot[c]
			} else {
				out[i] = float64(c) * inv
			}
		}
	}
}

// bucketWidth is how many keys a bucket spans when `once` of n entries were
// seen once: equal buckets, as many as hold bucketOnce once-seen entries each.
func bucketWidth(n, once int) int {
	buckets := max(1, once/bucketOnce)
	return (n + buckets - 1) / buckets
}

// countOfCounts returns N_r, how many of counts equal r, for r up to
// presenceLevels+1; the last slot takes everything above. It runs once over
// the whole vector and once over every bucket, so it is written to neither
// branch on the count (samplers see mostly zeros, profiles do not) nor bump
// one slot per entry: four tallies in turn keep the stores apart.
func countOfCounts(counts []uint32) (n [presenceLevels + 3]int) {
	const above = uint32(len(n) - 1)
	var t [4][len(n)]int
	for ; len(counts) >= 4; counts = counts[4:] {
		t[0][min(counts[0], above)]++
		t[1][min(counts[1], above)]++
		t[2][min(counts[2], above)]++
		t[3][min(counts[3], above)]++
	}
	for _, c := range counts {
		t[0][min(c, above)]++
	}
	for r := range n {
		n[r] = t[0][r] + t[1][r] + t[2][r] + t[3][r]
	}
	return n
}

// DegreeHotness approximates hotness from vertex degrees (paper §6.1: "the
// vertex degree in graph datasets can approximate the access frequency").
// degrees may be out- or in-degree counts; the result is scaled so it sums
// to expectedKeysPerBatch.
func DegreeHotness(degrees []int64, expectedKeysPerBatch float64) Hotness {
	h := make(Hotness, len(degrees))
	var total int64
	for _, d := range degrees {
		total += d
	}
	if total == 0 || expectedKeysPerBatch <= 0 {
		return h
	}
	scale := expectedKeysPerBatch / float64(total)
	for i, d := range degrees {
		h[i] = float64(d) * scale
	}
	return h
}

// Total returns the expected keys per iteration.
func (h Hotness) Total() float64 {
	s := 0.0
	for _, v := range h {
		s += v
	}
	return s
}

// TopShare returns the fraction of accesses covered by the hottest
// `fraction` of entries — the skewness summary used throughout the
// evaluation discussion.
func (h Hotness) TopShare(fraction float64) float64 {
	ranked := h.Rank()
	total := h.Total()
	if total == 0 {
		return 0
	}
	k := int(float64(len(h)) * fraction)
	var top float64
	for i := 0; i < k && i < len(ranked); i++ {
		top += h[ranked[i]]
	}
	return top / total
}

// HeldOutCoverage checks a hotness estimate against batches it never saw:
// it profiles the first half of the batches over numEntries entries and,
// for the hottest `fraction` of entries by that estimate, returns the share
// of a batch's distinct keys the estimate says they hold next to the share
// they do hold in the second half. The two agree when the estimate is
// honest about batches outside its sample.
func HeldOutCoverage(numEntries int64, batches [][]int64, fractions []float64) (predicted, delivered []float64, err error) {
	half := len(batches) / 2
	if half == 0 {
		return nil, nil, fmt.Errorf("workload: a held-out check needs two batches, got %d", len(batches))
	}
	hot, err := ProfileBatches(numEntries, batches[:half])
	if err != nil {
		return nil, nil, err
	}
	later, err := countPresence(numEntries, batches[half:])
	if err != nil {
		return nil, nil, err
	}
	laterTotal := 0.0
	for _, c := range later {
		laterTotal += float64(c)
	}
	ranked := hot.Rank()
	for _, f := range fractions {
		got := 0.0
		for _, e := range ranked[:min(len(ranked), int(float64(len(ranked))*f))] {
			got += float64(later[e])
		}
		predicted = append(predicted, hot.TopShare(f))
		delivered = append(delivered, got/max(laterTotal, 1))
	}
	return predicted, delivered, nil
}
