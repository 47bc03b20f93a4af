package baselines

import (
	"fmt"
	"sort"
)

// OnlineLFU models the frequency-driven online caches the paper competes
// with (HPS-style replication with online eviction; the frequency-aware
// software caches of the DLR serving literature): every GPU holds the same
// top-C keys by decayed access frequency, and membership is re-adjusted
// after every observed batch. There is no solve and no placement — the
// cache chases the measured stream directly, which makes it the natural
// online baseline for the drift bench: it reacts to a shift immediately but
// pays continuous churn and never coordinates storage across GPUs.
//
// The per-batch adjustment selects the exact top-C by current count — an
// idealized (maximally reactive) LFU, so the comparison is conservative for
// the solver side.
type OnlineLFU struct {
	capacity int
	decay    float64

	counts  []float64
	cached  []bool
	batches int

	admitted, evicted int64 // cumulative membership churn

	order []int32            // selection scratch
	seen  map[int64]struct{} // per-batch presence dedup scratch
}

// NewOnlineLFU builds an LFU cache over numEntries keys holding capacity
// entries per GPU. decay in (0, 1] multiplies all counts each batch
// (1 = pure cumulative LFU; lower values forget faster and track drift
// more aggressively).
func NewOnlineLFU(numEntries int64, capacity int, decay float64) (*OnlineLFU, error) {
	if numEntries <= 0 {
		return nil, fmt.Errorf("baselines: lfu needs entries > 0, got %d", numEntries)
	}
	if capacity <= 0 || int64(capacity) > numEntries {
		return nil, fmt.Errorf("baselines: lfu capacity %d outside (0, %d]", capacity, numEntries)
	}
	if decay <= 0 || decay > 1 {
		return nil, fmt.Errorf("baselines: lfu decay %g outside (0, 1]", decay)
	}
	return &OnlineLFU{
		capacity: capacity,
		decay:    decay,
		counts:   make([]float64, numEntries),
		cached:   make([]bool, numEntries),
		order:    make([]int32, numEntries),
		seen:     make(map[int64]struct{}, 1024),
	}, nil
}

// Observe feeds one batch: counts are decayed, each present key's count is
// bumped once (presence, matching how the extractor deduplicates), and the
// cached set is re-adjusted to the current top-capacity keys. Out-of-range
// keys are ignored.
func (l *OnlineLFU) Observe(keys []int64) {
	l.batches++
	if l.decay < 1 {
		for i := range l.counts {
			l.counts[i] *= l.decay
		}
	}
	clear(l.seen)
	for _, k := range keys {
		if k < 0 || k >= int64(len(l.counts)) {
			continue
		}
		if _, dup := l.seen[k]; dup {
			continue
		}
		l.seen[k] = struct{}{}
		l.counts[k]++
	}
	l.adjust()
}

// adjust rebuilds the cached set as the exact top-capacity keys by count
// (ties broken by ascending key for determinism), tallying churn.
func (l *OnlineLFU) adjust() {
	for i := range l.order {
		l.order[i] = int32(i)
	}
	sort.Slice(l.order, func(a, b int) bool {
		ka, kb := l.order[a], l.order[b]
		if l.counts[ka] != l.counts[kb] {
			return l.counts[ka] > l.counts[kb]
		}
		return ka < kb
	})
	// Mark the new top set, counting admissions; then clear stragglers,
	// counting evictions.
	inTop := make(map[int32]struct{}, l.capacity)
	for r := 0; r < l.capacity; r++ {
		k := l.order[r]
		inTop[k] = struct{}{}
		if !l.cached[k] {
			l.cached[k] = true
			l.admitted++
		}
	}
	for k := range l.cached {
		if !l.cached[k] {
			continue
		}
		if _, keep := inTop[int32(k)]; !keep {
			l.cached[k] = false
			l.evicted++
		}
	}
}

// holds reports whether a key is currently held.
func (l *OnlineLFU) holds(k int64) bool {
	return k >= 0 && k < int64(len(l.cached)) && l.cached[k]
}

// classify splits a batch into cached hits and host misses.
func (l *OnlineLFU) classify(keys []int64) (hits, misses int) {
	for _, k := range keys {
		if l.holds(k) {
			hits++
		} else {
			misses++
		}
	}
	return hits, misses
}

// Churn returns the cumulative admitted/evicted membership changes — the
// entries an online cache keeps moving that a solved placement moves only
// at refresh time.
func (l *OnlineLFU) Churn() (admitted, evicted int64) { return l.admitted, l.evicted }

// ServeTime models one batch's extraction seconds on GPU g for this cache:
// hits read from the local replica, misses from host memory, using the
// platform's serial per-tier time-per-byte estimates (tpb is
// platform.TimePerByteTable(), host the platform's Host() index). keys
// should be the batch's unique keys, as the extractor deduplicates.
func (l *OnlineLFU) ServeTime(tpb [][]float64, g, host int, keys []int64, entryBytes int) float64 {
	hits, misses := l.classify(keys)
	eb := float64(entryBytes)
	return float64(hits)*eb*tpb[g][g] + float64(misses)*eb*tpb[g][host]
}
