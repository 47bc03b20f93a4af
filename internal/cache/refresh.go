package cache

import (
	"fmt"
	"math"
	"sync"
	"time"

	"ugache/internal/flight"
	"ugache/internal/hashtable"
	"ugache/internal/solver"
	"ugache/internal/telemetry"
	"ugache/internal/workload"
)

// refreshMetrics is the §7.2 impact timeline surfaced as gauges: the last
// refresh's phase durations, diff size and mean foreground inflation, plus
// a live in-progress flag. Updated only on the (slow) refresh path.
type refreshMetrics struct {
	total         *telemetry.Counter
	active        *telemetry.Gauge
	duration      *telemetry.Gauge
	solveSeconds  *telemetry.Gauge
	updateSeconds *telemetry.Gauge
	meanImpact    *telemetry.Gauge
	evicted       *telemetry.Gauge
	inserted      *telemetry.Gauge
	solveWall     *telemetry.Gauge
}

// SetTelemetry registers the refresh gauges in reg and publishes every
// later Refresh's report through them. Call before serving; replaces any
// earlier registry.
func (s *System) SetTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		s.refreshMet.Store(nil)
		return
	}
	s.refreshMet.Store(&refreshMetrics{
		total:         reg.Counter("cache_refresh_total", "completed placement refreshes"),
		active:        reg.Gauge("cache_refresh_active", "1 while a refresh is being applied"),
		duration:      reg.Gauge("cache_refresh_last_duration_seconds", "last refresh trigger-to-completion seconds"),
		solveSeconds:  reg.Gauge("cache_refresh_last_solve_seconds", "last refresh background-solve seconds"),
		updateSeconds: reg.Gauge("cache_refresh_last_update_seconds", "last refresh small-batch update seconds"),
		meanImpact:    reg.Gauge("cache_refresh_last_mean_impact", "last refresh mean foreground iteration-time inflation"),
		evicted:       reg.Gauge("cache_refresh_last_evicted_entries", "entries evicted by the last refresh"),
		inserted:      reg.Gauge("cache_refresh_last_inserted_entries", "entries inserted by the last refresh"),
		solveWall:     reg.Gauge("cache_refresh_last_solve_wall_seconds", "last refresh measured policy-solve wall seconds"),
	})
}

// Record returns the report as the refresh's flight control record, stamped
// now: the measured solve, the Fig. 17 layout, the wall seconds since
// trigger (the solve's start) and pl's storage summary — everything the
// trace's solver and refresh tracks are drawn from (flight.Draw). The
// caller sets Seq.
func (rep *RefreshReport) Record(pl *solver.Placement, trigger time.Time) flight.Event {
	var wall, estMax float64
	if st := rep.Solve; st != nil {
		wall = st.WallSeconds
	}
	for _, t := range pl.EstTimes {
		estMax = max(estMax, t)
	}
	sum, now := pl.StorageSummary(), time.Now()
	return flight.Event{Kind: flight.KindRefresh, GPU: -1, UnixNanos: now.UnixNano(), V: [flight.MaxPayload]float64{
		// In slot order, flight.RefreshSolveWallSeconds to RefreshEstTimeMax.
		wall, rep.Duration, float64(rep.EvictedEntries + rep.InsertedEntries), rep.MeanImpact,
		float64(rep.EvictedEntries), float64(rep.InsertedEntries), rep.SolveSeconds, rep.UpdateSeconds,
		float64(rep.Steps), rep.StepSeconds, rep.LastStepSeconds, rep.PauseSeconds, now.Sub(trigger).Seconds(),
		float64(len(pl.Blocks)), float64(sum.ReplicatedBlocks), float64(sum.PartialBlocks),
		float64(sum.PartitionedBlocks), float64(sum.UncachedBlocks),
		sum.ReplicatedMass, sum.PartitionedMass, sum.UncachedMass, estMax,
	}}
}

// publish pushes one refresh report into the gauges. A report without solve
// statistics zeroes the solve-wall gauge: it describes the *last* refresh,
// and leaving a previous solve's wall time published after a stat-less
// refresh would misattribute that solve to the wrong placement.
func (m *refreshMetrics) publish(rep *RefreshReport) {
	m.total.Add(0, 1)
	m.duration.Set(rep.Duration)
	m.solveSeconds.Set(rep.SolveSeconds)
	m.updateSeconds.Set(rep.UpdateSeconds)
	m.meanImpact.Set(rep.MeanImpact)
	m.evicted.Set(float64(rep.EvictedEntries))
	m.inserted.Set(float64(rep.InsertedEntries))
	wall := 0.0
	if st := rep.Solve; st != nil {
		wall = st.WallSeconds
	}
	m.solveWall.Set(wall)
}

// HotnessSampler is the foreground sampling of §7.2: input batches are
// sampled (every Nth batch) and counted on the CPU so the background
// Refresher can re-evaluate the policy against fresh hotness.
//
// The sampler is sharded per caller so the serving engine's one-worker-per-
// GPU loop can observe batches without a data race: each worker owns one
// SamplerShard (Shard(g)) and counts into it lock-free; Hotness and Batches
// merge the shards on read. The zero-argument Observe forwards to shard 0
// for single-goroutine callers.
type HotnessSampler struct {
	numEntries int64
	every      int

	mu     sync.Mutex
	shards []*SamplerShard
	merged []uint32 // the shards' counts summed, when there are several
}

// SamplerShard is one caller's private slice of the sampler. A shard
// belongs to one observing goroutine, so its mutex is uncontended in
// steady state (one lock per batch, not per key); it exists so a
// background Hotness merge may run while observation continues.
type SamplerShard struct {
	mu      sync.Mutex
	counts  []uint32
	dedup   *hashtable.Dedup
	sampled int
	seen    int
	every   int
}

// NewHotnessSampler records every `every`-th batch (min 1).
func NewHotnessSampler(numEntries int64, every int) *HotnessSampler {
	if every < 1 {
		every = 1
	}
	return &HotnessSampler{numEntries: numEntries, every: every}
}

// Shard returns the caller's shard, creating it (and any lower-numbered
// ones) on first use. Safe to call concurrently; the per-shard Observe is
// what must stay single-threaded.
func (h *HotnessSampler) Shard(i int) *SamplerShard {
	if i < 0 {
		i = 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	for len(h.shards) <= i {
		h.shards = append(h.shards, &SamplerShard{
			counts: make([]uint32, h.numEntries),
			dedup:  hashtable.NewDedup(256),
			every:  h.every,
		})
	}
	return h.shards[i]
}

// Observe feeds one input batch to shard 0 (single-goroutine convenience;
// concurrent callers must use their own Shard).
func (h *HotnessSampler) Observe(keys []int64) { h.Shard(0).Observe(keys) }

// Observe feeds one input batch. Keys are counted once per batch
// (presence), matching how the extractor deduplicates batches; the reusable
// generation-stamped dedup table replaces the old per-batch map allocation.
func (s *SamplerShard) Observe(keys []int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seen++
	if (s.seen-1)%s.every != 0 {
		return
	}
	s.sampled++
	s.dedup.Reset(len(keys))
	for _, k := range keys {
		if k < 0 || k >= int64(len(s.counts)) {
			continue
		}
		if _, fresh := s.dedup.Add(k); fresh && s.counts[k] != math.MaxUint32 {
			s.counts[k]++ // saturating: a window nobody resets must not wrap to "never seen"
		}
	}
}

// Batches returns how many batches were recorded across all shards.
func (h *HotnessSampler) Batches() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	total := 0
	for _, s := range h.shards {
		s.mu.Lock()
		total += s.sampled
		s.mu.Unlock()
	}
	return total
}

// Hotness merges the shards into the measured per-entry expected presence
// per batch (see HotnessInto).
func (h *HotnessSampler) Hotness() (workload.Hotness, error) {
	out := make(workload.Hotness, h.numEntries)
	if _, err := h.HotnessInto(out); err != nil {
		return nil, err
	}
	return out, nil
}

// HotnessInto merges the shards' presence counts and writes the hotness they
// estimate into dst (len NumEntries, overwritten), returning how many batches
// the merge covers. The estimate is workload.EstimatePresence, the same one
// ProfileBatches applies to recorded batches, so an online re-solve plans on
// what the window predicts for the batches after it, not on raw counts. It
// allocates nothing in steady state (several shards share one summed-count
// buffer the sampler keeps), so a periodic caller — the drift detector — can
// re-merge against a reused buffer as observation continues.
func (h *HotnessSampler) HotnessInto(dst workload.Hotness) (int, error) {
	if int64(len(dst)) != h.numEntries {
		return 0, fmt.Errorf("cache: hotness buffer for %d entries, sampler has %d", len(dst), h.numEntries)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	sampled := 0
	for _, s := range h.shards {
		s.mu.Lock()
		sampled += s.sampled
		s.mu.Unlock()
	}
	if sampled == 0 {
		return 0, fmt.Errorf("cache: no batches sampled")
	}
	if len(h.shards) == 1 { // nothing to sum: estimate straight from the shard
		s := h.shards[0]
		s.mu.Lock()
		workload.EstimatePresence(dst, s.counts, sampled)
		s.mu.Unlock()
		return sampled, nil
	}
	if h.merged == nil {
		h.merged = make([]uint32, h.numEntries)
	}
	for n, s := range h.shards {
		s.mu.Lock()
		if n == 0 {
			copy(h.merged, s.counts)
		} else {
			for i, c := range s.counts {
				h.merged[i] += c
			}
		}
		s.mu.Unlock()
	}
	workload.EstimatePresence(dst, h.merged, sampled)
	return sampled, nil
}

// Reset zeroes every shard's counts and batch tally, starting a fresh
// observation window. The refresh controller calls it right after a
// placement refresh so the next drift check measures post-refresh traffic
// rather than averaging across the shift it just reacted to.
func (h *HotnessSampler) Reset() {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, s := range h.shards {
		s.mu.Lock()
		clear(s.counts)
		s.sampled = 0
		s.seen = 0
		s.mu.Unlock()
	}
}

// NumEntries returns the entry count the sampler was built for.
func (h *HotnessSampler) NumEntries() int64 { return h.numEntries }

// SolveStats describes the real policy solve that produced the placement
// being applied — its measured wall time — as opposed to
// RefreshConfig.SolveSeconds, which is the simulated solve duration replayed
// into the Fig. 17 timeline. The core engine fills it from the solver; it
// flows untouched into the report, the cache_refresh_last_solve_wall_seconds
// gauge, and the refresh's flight record.
type SolveStats struct {
	// WallSeconds is the measured wall-clock duration of the solve.
	WallSeconds float64
}

// RefreshConfig tunes the §7.2 background refresh.
type RefreshConfig struct {
	// SolveSeconds is the simulated background policy-solve time (the paper
	// reports ~10 s for the MILP).
	SolveSeconds float64
	// BatchEntries is the number of cache entries updated per small-batch
	// step (update granularity).
	BatchEntries int64
	// PauseSeconds separates consecutive update batches, bounding
	// foreground impact.
	PauseSeconds float64
	// UpdateBandwidth is the effective bytes/s for moving cache updates
	// (host-to-device over PCIe).
	UpdateBandwidth float64
	// SamplePeriod is the timeline sampling period in seconds.
	SamplePeriod float64
	// Solve, when non-nil, attaches the real solve's statistics to the
	// report and gauges (the simulated impact replay above is driven by
	// SolveSeconds regardless).
	Solve *SolveStats
}

// Foreground slowdown factors of the §7.2 replay (Fig. 17's shape).
const (
	// solveImpact applies while the background solve runs, on restricted CPU
	// cores.
	solveImpact = 1.02
	// updateImpact applies while an update batch occupies the GPU; the
	// batch/pause duty cycle brings the average down to the paper's ~10%.
	updateImpact = 1.25
)

// DefaultRefreshConfig mirrors the behaviour in §7.2/Fig. 17: a ~10 s
// solve, small-batch updates with pauses, ≈10% average foreground impact,
// and a 20–30 s total duration on the evaluation workloads.
func DefaultRefreshConfig() RefreshConfig {
	return RefreshConfig{
		SolveSeconds:    10,
		BatchEntries:    50_000,
		PauseSeconds:    0.25,
		UpdateBandwidth: 10e9,
		SamplePeriod:    0.5,
	}
}

// RefreshStep is one timeline sample: foreground iteration time at time T.
type RefreshStep struct {
	T        float64 // seconds since the refresh trigger
	IterTime float64 // seconds per foreground iteration
}

// RefreshReport summarizes one refresh (Fig. 17).
type RefreshReport struct {
	Duration        float64 // seconds from trigger to completion
	SolveSeconds    float64
	UpdateSeconds   float64
	EvictedEntries  int64
	InsertedEntries int64
	// RebuildEntries is what a from-scratch application of the new placement
	// would have moved (evict every stored entry of the old placement, then
	// insert every stored entry of the new one). EvictedEntries +
	// InsertedEntries vs RebuildEntries is the incremental-delta saving.
	RebuildEntries int64
	MeanImpact     float64 // average iteration-time inflation during refresh
	Timeline       []RefreshStep
	// The update phase's step layout: Steps small-batch steps, each busy for
	// StepSeconds (the last for LastStepSeconds, its remainder's transfer)
	// and followed by PauseSeconds.
	Steps                                      int64
	StepSeconds, LastStepSeconds, PauseSeconds float64
	// Solve carries the real solve's statistics when the caller provided
	// them in RefreshConfig.Solve; nil otherwise.
	Solve *SolveStats
}

// Refresh re-points the system at a new placement, simulating the §7.2
// procedure: background solve, then eviction/insertion applied in small
// batches interleaved with foreground batches. baseIterTime is the
// foreground iteration latency before the refresh (afterIterTime may
// differ; the timeline uses base during and after — callers re-measure).
//
// Refresh is safe to run concurrently with readers: the diff is applied to
// a private clone of the current snapshot and published with one atomic
// swap, only after every batch applied cleanly. On error the published
// snapshot is untouched. Concurrent Refresh calls serialize.
func (s *System) Refresh(newPl *solver.Placement, baseIterTime float64, cfg RefreshConfig) (*RefreshReport, error) {
	if newPl == nil {
		return nil, fmt.Errorf("cache: nil new placement")
	}
	s.refreshMu.Lock()
	defer s.refreshMu.Unlock()
	if m := s.refreshMet.Load(); m != nil {
		m.active.Set(1)
		defer m.active.Set(0)
	}
	old := s.snap.Load()
	if newPl.NumGPUs != s.P.N || newPl.NumEntries() != old.placement.NumEntries() {
		return nil, fmt.Errorf("cache: new placement shape mismatch")
	}
	if baseIterTime <= 0 {
		return nil, fmt.Errorf("cache: baseIterTime must be positive")
	}
	if cfg.BatchEntries <= 0 || cfg.UpdateBandwidth <= 0 || cfg.SamplePeriod <= 0 {
		return nil, fmt.Errorf("cache: invalid refresh config")
	}

	// Diff old vs new storage per GPU, once: the same per-GPU evict/insert
	// lists drive the update-phase accounting below AND the apply phase, so
	// the diff is never recomputed (the old code built O(entries) key-set
	// maps per GPU twice). The delta is computed entry-wise against both
	// placements' block tables — no per-GPU key sets are materialized at
	// all, which is what makes the apply incremental rather than a rebuild.
	delta := placementDelta(old.placement, newPl, s.P.N)
	var evicted, inserted int64
	for g := range delta {
		evicted += int64(len(delta[g].evict))
		inserted += int64(len(delta[g].insert))
	}

	// Update phase: moved bytes happen in BatchEntries-sized steps, with the
	// final step sized by the actual remainder — a 50k-entry batch config
	// moving 50k+1 entries costs one full step plus a 1-entry step, not two
	// full ones (the old accounting overstated UpdateSeconds and the
	// Fig. 17 timeline for every non-multiple diff).
	movedEntries := evicted + inserted
	fullSteps := movedEntries / cfg.BatchEntries
	remEntries := movedEntries % cfg.BatchEntries
	perStep := float64(cfg.BatchEntries*int64(s.EntryBytes)) / cfg.UpdateBandwidth
	remStep := float64(remEntries*int64(s.EntryBytes)) / cfg.UpdateBandwidth
	updateSeconds := float64(fullSteps) * (perStep + cfg.PauseSeconds)
	if remEntries > 0 {
		updateSeconds += remStep + cfg.PauseSeconds
	}
	duration := cfg.SolveSeconds + updateSeconds

	// Timeline.
	rep := &RefreshReport{
		Duration:        duration,
		SolveSeconds:    cfg.SolveSeconds,
		UpdateSeconds:   updateSeconds,
		EvictedEntries:  evicted,
		InsertedEntries: inserted,
		RebuildEntries:  storedEntries(old.placement) + storedEntries(newPl),
		Solve:           cfg.Solve,
		Steps:           fullSteps,
		StepSeconds:     perStep,
		LastStepSeconds: perStep,
		PauseSeconds:    cfg.PauseSeconds,
	}
	if remEntries > 0 {
		rep.Steps++
		rep.LastStepSeconds = remStep
	}
	// Samples are indexed by integer sample number with t derived per
	// sample: accumulating t += SamplePeriod drifts by an ulp per step, and
	// over a long refresh the accumulated error skips or double-counts the
	// busy/pause boundaries the switch below classifies against.
	impactSum, impactN := 0.0, 0
	for i := -5; float64(i)*cfg.SamplePeriod < duration+5*cfg.SamplePeriod; i++ {
		t := float64(i) * cfg.SamplePeriod
		it := baseIterTime
		switch {
		case t < 0 || t >= duration:
			// steady state
		case t < cfg.SolveSeconds:
			it = baseIterTime * solveImpact
		default:
			// Inside the update phase: batches alternate with pauses; the
			// final (possibly partial) step keeps the GPU busy only for its
			// actual transfer time.
			u := t - cfg.SolveSeconds
			stepLen := perStep + cfg.PauseSeconds
			step := int64(u / stepLen)
			busy := perStep
			if step >= fullSteps {
				busy = remStep
			}
			if math.Mod(u, stepLen) < busy {
				it = baseIterTime * updateImpact
			}
		}
		if t >= 0 && t < duration {
			impactSum += it/baseIterTime - 1
			impactN++
		}
		rep.Timeline = append(rep.Timeline, RefreshStep{T: t, IterTime: it})
	}
	if impactN > 0 {
		rep.MeanImpact = impactSum / float64(impactN)
	}

	// Apply the delta incrementally, GPU by GPU: evictions first (freeing
	// slots), then insertions into the recycled slots — the small-batch
	// update of §7.2. Only the entries whose tier actually changed are
	// touched; everything else keeps its slot in the cloned tables. The
	// updates go to a private clone of the snapshot, so foreground reads
	// keep resolving against the old tables and arenas until the clone is
	// published below.
	next := old.clone()
	next.placement = newPl
	buf := make([]byte, s.EntryBytes)
	for g := 0; g < s.P.N; g++ {
		c := next.caches[g]
		for _, k := range delta[g].evict {
			if !c.evict(k) {
				return nil, fmt.Errorf("cache: refresh eviction missed key %d on gpu %d", k, g)
			}
		}
		for _, k := range delta[g].insert {
			if err := c.insert(k, s.source, buf); err != nil {
				return nil, fmt.Errorf("cache: refresh insert on gpu %d: %w", g, err)
			}
		}
	}
	s.snap.Store(next)
	if m := s.refreshMet.Load(); m != nil {
		m.publish(rep)
	}
	return rep, nil
}

// gpuDelta is one GPU's incremental placement diff: the keys it must drop
// and the keys it must admit to move from the old placement to the new one.
type gpuDelta struct {
	evict  []int64
	insert []int64
}

// placementDelta computes the per-GPU evict/insert lists between two
// placements by walking the entry space once and comparing both block
// tables' StoredOn answers (two O(1) rank lookups per entry per GPU). No
// per-GPU key sets are built — the delta is exactly the entries whose
// storage changed, in ascending key order (deterministic apply).
func placementDelta(old, new *solver.Placement, numGPUs int) []gpuDelta {
	out := make([]gpuDelta, numGPUs)
	n := old.NumEntries()
	for g := 0; g < numGPUs; g++ {
		d := &out[g]
		for e := int64(0); e < n; e++ {
			was, is := old.StoredOn(g, e), new.StoredOn(g, e)
			switch {
			case was && !is:
				d.evict = append(d.evict, e)
			case !was && is:
				d.insert = append(d.insert, e)
			}
		}
	}
	return out
}

// storedEntries counts the placement's stored entries summed over GPUs —
// the volume a from-scratch fill of the placement would insert.
func storedEntries(pl *solver.Placement) int64 {
	var total int64
	for bi := range pl.Blocks {
		b := &pl.Blocks[bi]
		for _, stored := range b.Store {
			if stored {
				total += b.Entries()
			}
		}
	}
	return total
}
