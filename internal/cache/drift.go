package cache

import (
	"fmt"
	"sync"

	"ugache/internal/workload"
)

// DriftConfig tunes the hotness-drift detector.
type DriftConfig struct {
	// Threshold is the drift score in [0, 1] above which Check reports
	// Drifted (0 defaults to 0.3). The score is max(1 - top-K overlap,
	// weighted rank distance), so 0.3 means "30% of the hot head changed
	// identity, or the head's ranks moved 30% of the key space on average".
	Threshold float64
	// MinBatches gates checking: a window with fewer sampled batches is too
	// noisy to act on and Check reports Drifted = false regardless of the
	// score (0 defaults to 16).
	MinBatches int
	// MaxBatches bounds the observation window: once a check's window
	// reaches this many sampled batches, the sampler is reset after scoring
	// so the next window starts fresh. Without the cap an old window
	// dilutes a sudden shift — the post-shift batches are outvoted by
	// accumulated pre-shift mass and the trigger lags by the window's age.
	// 0 defaults to 4x MinBatches; values below MinBatches are raised to it.
	MaxBatches int
}

// driftTopK is the hot-head size K the overlap statistic tracks: 1/16 of the
// entry space — roughly the mass a cache-ratio-sized head covers on the
// paper's skews — but at least 16 entries, and never more than there are.
func driftTopK(numEntries int64) int {
	return int(min(max(numEntries/16, 16), numEntries))
}

func (c DriftConfig) normalize() DriftConfig {
	if c.Threshold <= 0 {
		c.Threshold = 0.3
	}
	if c.MinBatches <= 0 {
		c.MinBatches = 16
	}
	if c.MaxBatches <= 0 {
		c.MaxBatches = 4 * c.MinBatches
	}
	if c.MaxBatches < c.MinBatches {
		c.MaxBatches = c.MinBatches
	}
	return c
}

// DriftStatus is one drift check's outcome.
type DriftStatus struct {
	// Batches is how many sampled batches the measured window covers.
	Batches int
	// TopKOverlap is the reference-hotness-weighted fraction of the
	// reference distribution's top-K entries still in the measured top-K
	// (1 = stationary head). Mass weighting keeps sampling noise at the K
	// boundary — large tie regions of near-equal counts — from reading as
	// drift: a boundary entry that slips out carries little mass, while the
	// head moving out collapses the overlap immediately.
	TopKOverlap float64
	// RankDistance is the reference-hotness-weighted mean rank displacement
	// of the reference top-K, normalized by the key-space size (0 =
	// stationary ranks, 1 = the whole head moved to the far end).
	RankDistance float64
	// Score is max(1 - TopKOverlap, RankDistance).
	Score float64
	// Drifted reports Score > Threshold with at least MinBatches sampled.
	Drifted bool
	// Measured is the merged measured hotness the check ran against. It
	// aliases the detector's internal buffer and is only valid until the
	// next Check; callers that act on it (triggering a refresh) must copy.
	Measured workload.Hotness
}

// DriftDetector decides when the sampled hotness has moved far enough from
// the distribution the current placement was solved against to justify a
// re-solve (the closed-loop replacement for §7.2's fixed-cadence refresh).
//
// Two statistics are computed per check, both against a *reference*
// distribution (the hotness behind the live placement):
//
//   - top-K overlap: how much of the reference's hot head is still hot. A
//     flash-crowd key-set swap collapses this immediately.
//   - weighted rank distance: how far the reference head's ranks moved,
//     weighted by reference hotness. A skew change (diurnal Zipf-α sweep)
//     that keeps the head's identity but rebalances its mass shows up here.
//
// The measured side merges incrementally from the sampler's existing
// per-worker shards into a reused buffer and never blocks a worker's
// observation for longer than one pass over its shard (a sampler with a single
// shard is estimated in place, and holds it for the estimate). In steady state
// a check allocates only what the ranking's worker goroutines do: nothing on
// one processor, about 4 allocations on two over 400k entries (measured; see
// workload.Ranker), none below 2¹⁶ entries, which rank inline.
type DriftDetector struct {
	cfg     DriftConfig
	topK    int // driftTopK of the entry space
	sampler *HotnessSampler

	mu      sync.Mutex
	refHot  workload.Hotness // reference hotness (copied at Rebase)
	refRank []int32          // entry -> reference rank
	refTop  []bool           // entry -> in reference top-K
	refMass float64          // Σ refHot over reference top-K

	// Reused check scratch.
	measured workload.Hotness
	measRank []int32         // entry -> measured rank
	ranker   workload.Ranker // keeps the sort buffers between checks
}

// NewDriftDetector builds a detector over the sampler's measured stream,
// referenced against the hotness the current placement assumes.
func NewDriftDetector(sampler *HotnessSampler, reference workload.Hotness, cfg DriftConfig) (*DriftDetector, error) {
	if sampler == nil {
		return nil, fmt.Errorf("cache: drift detector needs a sampler")
	}
	if int64(len(reference)) != sampler.NumEntries() {
		return nil, fmt.Errorf("cache: reference hotness for %d entries, sampler has %d",
			len(reference), sampler.NumEntries())
	}
	n := len(reference)
	d := &DriftDetector{
		cfg:      cfg.normalize(),
		topK:     driftTopK(int64(n)),
		sampler:  sampler,
		refHot:   make(workload.Hotness, n),
		refRank:  make([]int32, n),
		refTop:   make([]bool, n),
		measured: make(workload.Hotness, n),
		measRank: make([]int32, n),
	}
	d.rebase(reference)
	return d, nil
}

// Config returns the normalized configuration the detector runs with.
func (d *DriftDetector) Config() DriftConfig { return d.cfg }

// Rebase replaces the reference distribution — call after a refresh, with
// the hotness the new placement was solved against, so subsequent checks
// measure drift relative to what the cache now assumes.
func (d *DriftDetector) Rebase(reference workload.Hotness) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(reference) != len(d.refHot) {
		return fmt.Errorf("cache: rebase hotness for %d entries, detector has %d",
			len(reference), len(d.refHot))
	}
	d.rebase(reference)
	return nil
}

// rebase recomputes the reference ranking and top-K set. Caller holds d.mu
// (or is the constructor).
func (d *DriftDetector) rebase(reference workload.Hotness) {
	copy(d.refHot, reference)
	clear(d.refTop)
	d.refMass = 0
	for r, k := range d.ranker.Rank(d.refHot) {
		d.refRank[k.Entry] = int32(r)
		if r < d.topK {
			d.refTop[k.Entry] = true
			d.refMass += d.refHot[k.Entry]
		}
	}
}

// Check merges the sampler's current window and scores it against the
// reference. An empty window (no batches sampled yet) returns an error;
// a short window (< MinBatches) returns the scores with Drifted forced
// false.
func (d *DriftDetector) Check() (DriftStatus, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	batches, err := d.sampler.HotnessInto(d.measured)
	if err != nil {
		return DriftStatus{}, err
	}
	for r, k := range d.ranker.Rank(d.measured) {
		d.measRank[k.Entry] = int32(r)
	}

	// Mass-weighted top-K overlap and weighted rank distance, both over the
	// reference head in one pass.
	overlap, dist := 1.0, 0.0
	if d.refMass > 0 {
		hitMass := 0.0
		n := float64(len(d.refHot))
		topK := int32(d.topK)
		for e, top := range d.refTop {
			if !top {
				continue
			}
			if d.measRank[e] < topK {
				hitMass += d.refHot[e]
			}
			disp := float64(d.refRank[e]) - float64(d.measRank[e])
			if disp < 0 {
				disp = -disp
			}
			dist += d.refHot[e] * disp / n
		}
		overlap = hitMass / d.refMass
		dist /= d.refMass
	}

	st := DriftStatus{
		Batches:      batches,
		TopKOverlap:  overlap,
		RankDistance: dist,
		Score:        max(1-overlap, dist),
		Measured:     d.measured,
	}
	st.Drifted = st.Score > d.cfg.Threshold && batches >= d.cfg.MinBatches
	// Slide the window: a full one restarts after scoring (the measured
	// buffer itself stays valid — Reset clears the shards, not our merge).
	if batches >= d.cfg.MaxBatches {
		d.sampler.Reset()
	}
	return st, nil
}
