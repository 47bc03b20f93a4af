package workload

import (
	"fmt"
	"math"
)

// Hotness is the paper's §6.1 metric: the expected number of accesses per
// iteration for each embedding entry, indexed by key. The solver consumes
// it directly; applications may fill it by presampling (GNN: profile the
// first epoch), by degree proxy, or by online sampling (DLR).
type Hotness []float64

// ProfileBatches measures hotness by counting per-batch key *presence* over
// recorded batches and normalizing per batch — the presampling of GNNLab
// that §6.1 cites as sufficient to predict later epochs. Presence (each key
// counted once per batch) rather than raw occurrence matters because the
// extractor deduplicates each batch before reading: an entry appearing 50
// times in one batch still costs one read, so its cache value saturates.
func ProfileBatches(numEntries int64, batches [][]int64) (Hotness, error) {
	if numEntries <= 0 {
		return nil, fmt.Errorf("workload: numEntries must be positive")
	}
	if len(batches) == 0 {
		return nil, fmt.Errorf("workload: need at least one batch to profile")
	}
	h := make(Hotness, numEntries)
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
				h[k]++
			}
		}
	}
	// Good–Turing smoothing for the unseen tail: a finite profiling window
	// underestimates how often future batches touch keys it never saw, which
	// would make the solver treat the tail as worthless and overfit the
	// placement to the profiled head. The classic estimate of the unseen
	// probability mass is the frequency of once-seen events; it is spread
	// uniformly over the never-seen entries.
	var once, unseen int64
	for _, c := range h {
		switch c {
		case 0:
			unseen++
		case 1:
			once++
		}
	}
	inv := 1 / float64(len(batches))
	tail := 0.0
	if unseen > 0 {
		tail = float64(once) * inv / float64(unseen)
	}
	for i := range h {
		if h[i] == 0 {
			h[i] = tail
		} else {
			h[i] *= inv
		}
	}
	return h, nil
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

// Ranker orders entries by descending hotness, ties by ascending index — the
// one ranking every consumer (solver, drift detector) shares. It keeps its two
// sort buffers, so ranking same-sized vectors repeatedly allocates nothing.
type Ranker struct{ keys, spare []RankedEntry }

// The ranking's radix sort takes the 64-bit key in six 11-bit digits (the
// last holds the 9 bits left over): two passes fewer over the 16-byte entries
// than byte digits, with the six count tables still within the L2 cache.
const (
	rankDigitBits = 11
	rankDigits    = (64 + rankDigitBits - 1) / rankDigitBits
	rankRadix     = 1 << rankDigitBits
)

// Rank returns h's ranking, hottest first; the result is valid until the
// next call. Hotness must be non-negative and finite (the solver validates
// this), which makes the IEEE bit pattern order the numeric order: an LSD
// radix sort over the key digits, stable and seeded in index order, leaves
// ties in ascending index.
func (rk *Ranker) Rank(h Hotness) []RankedEntry {
	n := len(h)
	if cap(rk.keys) < n {
		rk.keys, rk.spare = make([]RankedEntry, n), make([]RankedEntry, n)
	}
	keys, spare := rk.keys[:n], rk.spare[:n]
	var counts [rankDigits][rankRadix]int
	for i, v := range h {
		bits := math.Float64bits(v)
		if v == 0 {
			bits = 0 // −0 ties with +0
		}
		k := ^bits
		keys[i] = RankedEntry{k, int64(i)}
		for p := range counts {
			counts[p][k>>(rankDigitBits*p)&(rankRadix-1)]++
		}
	}
	for p := range counts {
		c := &counts[p]
		shift := uint(rankDigitBits * p)
		if n == 0 || c[keys[0].key>>shift&(rankRadix-1)] == n {
			continue // every key shares this digit
		}
		sum := 0
		for d, cnt := range c {
			c[d], sum = sum, sum+cnt
		}
		for _, k := range keys {
			d := k.key >> shift & (rankRadix - 1)
			spare[c[d]] = k
			c[d]++
		}
		keys, spare = spare, keys
	}
	rk.keys, rk.spare = keys, spare
	return keys
}
