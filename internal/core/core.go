// Package core assembles UGache (paper §4): given a platform, hotness
// statistics, and per-GPU cache capacity, Build profiles the platform,
// solves the cache policy (Solver), fills the caches (Filler), and serves
// batched lookups through the factored Extractor. Refresh re-solves against
// new hotness in the background and applies the diff with bounded
// foreground impact (§7.2).
//
// A built System is safe for concurrent use: lookups, extractions and model
// queries read the cache layer's one published snapshot (placement,
// extractor, hotness, version, tables and arenas: cache.Snapshot), and
// Refresh has it publish a fully built replacement only after every
// fallible step succeeded.
//
// This package is the internal engine behind the public ugache package at
// the module root.
package core

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"time"

	"ugache/internal/cache"
	"ugache/internal/extract"
	"ugache/internal/flight"
	"ugache/internal/platform"
	"ugache/internal/solver"
	"ugache/internal/telemetry"
	"ugache/internal/workload"
)

// Config describes a UGache instance.
type Config struct {
	// Platform is the multi-GPU server (required).
	Platform *platform.Platform
	// Hotness is the per-entry expected accesses per iteration (required;
	// obtain it from presampling, degree proxies, or a HotnessSampler —
	// §6.1).
	Hotness workload.Hotness
	// EntryBytes is the embedding row size (required).
	EntryBytes int
	// CacheEntriesPerGPU sizes each GPU's cache in entries. If zero,
	// CacheRatio is used instead; negative values are rejected.
	CacheEntriesPerGPU int64
	// CacheRatio sizes each GPU's cache as a fraction of all entries. Tiny
	// ratios round up to at least one entry.
	CacheRatio float64
	// Policy picks the placement algorithm (default solver.UGache{}).
	Policy solver.Policy
	// Mechanism picks the extraction mechanism (default extract.Factored).
	Mechanism extract.Mechanism
	// Source, when non-nil, enables functional mode: Lookup returns real
	// embedding bytes verified against this host store.
	Source cache.RowSource
	// Owned, on clustered platforms, reports whether this machine's host
	// shard owns a key: owned network-class keys are served over the local
	// host path instead of crossing the wire (extract.Extractor.Owned). A
	// cluster passes each machine its shard of the hash ring
	// (cluster.Ring.Owner). Ignored on single-machine platforms.
	Owned func(key int64) bool
	// Telemetry receives the engine's metrics: the extraction series
	// (simulated time split by source tier, per-tier cache-hit key
	// counters, each link's mean utilization over the last extraction), the
	// refresh series every Refresh publishes, and an attached controller's
	// counters and drift gauges. Nil creates a private registry (sharded per
	// GPU), as serve.Config.Telemetry does, so the system is always
	// instrumented; pass one registry to both to read them on one surface.
	Telemetry *telemetry.Registry
	// Flight, when non-nil, receives control-plane flight records into the
	// recorder's shared control ring (DESIGN.md §6.6): every completed
	// Refresh (the solve, the applied delta and its Fig. 17 layout, the
	// placement's storage summary) and every drift evaluation from an
	// attached controller. The recorder's trace draws its control track
	// from the ring (flight.Draw).
	Flight *flight.Recorder
}

// System is a built UGache instance. Everything derived from the placement
// is the cache layer's snapshot (cache.System.Snapshot); the System holds
// only what no refresh changes.
type System struct {
	P         *platform.Platform
	Cache     *cache.System
	Mechanism extract.Mechanism

	policy solver.Policy
	// in is every solve's input but its hotness, which the snapshot holds.
	in solver.Input

	// reg holds every series of the system and its controllers:
	// Config.Telemetry, or a private registry. Every extraction reports its
	// per-tier split into met through lock-free shard updates, and every
	// Refresh its report into refreshed.
	reg       *telemetry.Registry
	met       *extractMetrics
	refreshed *refreshSeries
	// fl is nil unless Config.Flight was set; Refresh and any attached
	// controller then record control-plane flight events.
	fl *flight.Recorder
}

// refreshSeries is the §7.2 impact timeline surfaced as series: the last
// refresh's phase durations, diff size, mean foreground inflation and
// measured solve, plus a live in-progress flag. Refresh is their one writer.
type refreshSeries struct {
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

func newRefreshSeries(reg *telemetry.Registry) *refreshSeries {
	return &refreshSeries{
		total:         reg.Counter("cache_refresh_total", "completed placement refreshes"),
		active:        reg.Gauge("cache_refresh_active", "1 while a refresh is being applied"),
		duration:      reg.Gauge("cache_refresh_last_duration_seconds", "last refresh trigger-to-completion seconds"),
		solveSeconds:  reg.Gauge("cache_refresh_last_solve_seconds", "last refresh background-solve seconds"),
		updateSeconds: reg.Gauge("cache_refresh_last_update_seconds", "last refresh small-batch update seconds"),
		meanImpact:    reg.Gauge("cache_refresh_last_mean_impact", "last refresh mean foreground iteration-time inflation"),
		evicted:       reg.Gauge("cache_refresh_last_evicted_entries", "entries evicted by the last refresh"),
		inserted:      reg.Gauge("cache_refresh_last_inserted_entries", "entries inserted by the last refresh"),
		solveWall:     reg.Gauge("cache_refresh_last_solve_wall_seconds", "last refresh measured policy-solve wall seconds"),
	}
}

// set publishes one committed refresh's report.
func (m *refreshSeries) set(rep *cache.RefreshReport) {
	m.total.Add(0, 1)
	m.duration.Set(rep.Duration)
	m.solveSeconds.Set(rep.SolveSeconds)
	m.updateSeconds.Set(rep.UpdateSeconds)
	m.meanImpact.Set(rep.MeanImpact)
	m.evicted.Set(float64(rep.EvictedEntries))
	m.inserted.Set(float64(rep.InsertedEntries))
	m.solveWall.Set(rep.Solve.WallSeconds)
}

// refreshRecord returns a committed refresh as its flight control record,
// stamped now: the measured solve, the Fig. 17 layout, the wall seconds since
// trigger (the solve's start) and pl's storage summary — everything the
// trace's solver and refresh tracks are drawn from (flight.Draw). The caller
// sets Seq.
func refreshRecord(rep *cache.RefreshReport, pl *solver.Placement, trigger time.Time) flight.Event {
	sum, now := pl.StorageSummary(), time.Now()
	return flight.Event{Kind: flight.KindRefresh, GPU: -1, UnixNanos: now.UnixNano(), V: [flight.MaxPayload]float64{
		// In slot order: flight's kindFields[KindRefresh], solve_wall_s to
		// est_time_max.
		rep.Solve.WallSeconds, rep.Duration, float64(rep.EvictedEntries + rep.InsertedEntries), rep.MeanImpact,
		float64(rep.EvictedEntries), float64(rep.InsertedEntries), rep.SolveSeconds, rep.UpdateSeconds,
		float64(rep.Steps), rep.StepSeconds, rep.LastStepSeconds, rep.PauseSeconds, now.Sub(trigger).Seconds(),
		float64(len(pl.Blocks)), float64(sum.ReplicatedBlocks), float64(sum.PartialBlocks),
		float64(sum.PartitionedBlocks), float64(sum.UncachedBlocks),
		sum.ReplicatedMass, sum.PartitionedMass, sum.UncachedMass, maxOf(pl.EstTimes),
	}}
}

// extractMetrics splits the modelled extraction work by source tier — the
// quantity the §6.2 model predicts and Fig. 13/14 report. Second splits are
// the serial per-tier estimates (bytes x time-per-byte); tiers overlap in
// the simulated schedule, so they sum to more than the makespan. Link
// utilization divides by the platform's own link capacities, read in place.
type extractMetrics struct {
	batches    *telemetry.Counter
	simSeconds *telemetry.FloatCounter
	tierKeys   [platform.NumTiers]*telemetry.Counter      // indexed by platform.Tier
	tierSecs   [platform.NumTiers]*telemetry.FloatCounter // indexed by platform.Tier

	// linkUtil[l] is link l's last-run mean utilization gauge.
	linkUtil []*telemetry.Gauge
}

func newExtractMetrics(reg *telemetry.Registry, p *platform.Platform) *extractMetrics {
	return &extractMetrics{
		batches:    reg.Counter("core_extract_batches_total", "simulated extraction batches"),
		simSeconds: reg.FloatCounter("core_extract_sim_seconds_total", "simulated extraction makespan seconds"),
		tierKeys: [platform.NumTiers]*telemetry.Counter{
			platform.TierLocal:   reg.Counter("core_hit_local_keys_total", "keys served from the local GPU cache partition"),
			platform.TierRemote:  reg.Counter("core_hit_remote_keys_total", "keys served from peer GPU caches"),
			platform.TierHost:    reg.Counter("core_hit_host_keys_total", "keys falling through to host memory"),
			platform.TierNetwork: reg.Counter("core_hit_network_keys_total", "keys fetched from remote machines over the network tier"),
		},
		tierSecs: [platform.NumTiers]*telemetry.FloatCounter{
			platform.TierLocal:   reg.FloatCounter("core_extract_local_seconds_total", "modelled seconds moving local-tier bytes"),
			platform.TierRemote:  reg.FloatCounter("core_extract_remote_seconds_total", "modelled seconds moving remote-tier bytes"),
			platform.TierHost:    reg.FloatCounter("core_extract_host_seconds_total", "modelled seconds moving host-tier bytes"),
			platform.TierNetwork: reg.FloatCounter("core_extract_network_seconds_total", "modelled seconds moving network-tier bytes"),
		},
		linkUtil: linkUtilGauges(reg, p),
	}
}

// linkUtilGauges registers one utilization gauge per topology link:
// sim_link_util_<name> is the link's mean utilization over the most recent
// extraction, LinkBytes / (capacity × makespan) — Fig. 13's measure, per
// link. Registration happens once at Build.
func linkUtilGauges(reg *telemetry.Registry, p *platform.Platform) []*telemetry.Gauge {
	out := make([]*telemetry.Gauge, len(p.Topo.Links))
	for l, link := range p.Topo.Links {
		out[l] = reg.Gauge("sim_link_util_"+sanitizeMetricName(link.Name),
			"mean utilization of "+link.Name+" over the last extraction")
	}
	return out
}

// sanitizeMetricName maps a topology link name onto the Prometheus metric
// charset ([a-zA-Z0-9_]).
func sanitizeMetricName(name string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			return r
		default:
			return '_'
		}
	}, name)
}

// observeExtract records one extraction result: the makespan plus, per
// destination GPU, the per-tier key counts and serial time estimates of the
// extractor's tier split (which reflects the placement snapshot the batch
// resolved against). Counter updates shard by destination GPU, so
// concurrent serving workers do not contend.
func (s *System) observeExtract(res *extract.Result) {
	m := s.met
	entryBytes := float64(s.Cache.EntryBytes)
	shard := 0 // first active destination; serving batches have exactly one
	for g, row := range res.TierBytes {
		active := false
		for t, bytes := range row {
			if bytes == 0 {
				continue
			}
			active = true
			m.tierKeys[t].Add(g, int64(bytes/entryBytes))
			m.tierSecs[t].Add(g, res.TierSeconds[g][t])
		}
		if active && shard == 0 {
			shard = g
		}
	}
	m.batches.Add(shard, 1)
	m.simSeconds.Add(shard, res.Time)

	// Utilization gauges: each link's mean load over this extraction. Gauge
	// stores are single atomics, so this adds no allocation to the
	// instrumented path.
	if res.Time > 0 {
		for l, g := range m.linkUtil {
			if capacity := s.P.Topo.Links[l].Capacity; capacity > 0 {
				g.Set(res.LinkBytes[l] / (capacity * res.Time))
			}
		}
	}
}

// Build solves the policy and fills the caches. In functional mode (a
// Source) the Filler's backed arenas do not depend on the placement, so a
// goroutine makes them — faulting in and zeroing every byte — while the
// policy solves, and Fill receives them; a timing-only build makes none.
// On a failed solve or validation Build waits for that goroutine and drops
// what it made, so it returns with nothing of its own still running.
func Build(cfg Config) (*System, error) {
	if cfg.Platform == nil {
		return nil, fmt.Errorf("core: Platform is required")
	}
	if len(cfg.Hotness) == 0 {
		return nil, fmt.Errorf("core: Hotness is required")
	}
	if cfg.EntryBytes <= 0 {
		return nil, fmt.Errorf("core: EntryBytes must be positive")
	}
	if cfg.CacheEntriesPerGPU < 0 {
		return nil, fmt.Errorf("core: CacheEntriesPerGPU must be positive, got %d", cfg.CacheEntriesPerGPU)
	}
	capPer := cfg.CacheEntriesPerGPU
	if capPer == 0 {
		if cfg.CacheRatio <= 0 || cfg.CacheRatio > 1 {
			return nil, fmt.Errorf("core: need CacheEntriesPerGPU or CacheRatio in (0, 1]")
		}
		// Round up so a tiny ratio still yields a usable (>= 1 entry) cache
		// instead of silently truncating to zero.
		capPer = int64(math.Ceil(cfg.CacheRatio * float64(len(cfg.Hotness))))
		if capPer < 1 {
			capPer = 1
		}
	}
	policy := cfg.Policy
	if policy == nil {
		policy = solver.UGache{}
	}
	capacity := make([]int64, cfg.Platform.N)
	for g := range capacity {
		capacity[g] = capPer
	}
	in := solver.Input{
		P:          cfg.Platform,
		Hotness:    cfg.Hotness,
		EntryBytes: cfg.EntryBytes,
		Capacity:   capacity,
	}
	fill := cache.FillOptions{CapacityEntries: capacity, Source: cfg.Source, Hotness: cfg.Hotness, Owned: cfg.Owned}
	var arenaErr error
	var making sync.WaitGroup // the goroutine setting fill.Arenas and arenaErr
	if cfg.Source != nil {
		making.Add(1)
		go func() {
			defer making.Done()
			fill.Arenas, arenaErr = cache.NewArenas(cfg.Platform.N, capPer*int64(cfg.EntryBytes))
		}()
	}
	pl, err := policy.Solve(&in)
	if err != nil {
		err = fmt.Errorf("core: policy %s: %w", policy.Name(), err)
	} else if verr := pl.Validate(&in); verr != nil {
		err = fmt.Errorf("core: policy %s produced invalid placement: %w", policy.Name(), verr)
	}
	making.Wait()
	if err != nil {
		return nil, err
	}
	if arenaErr != nil {
		return nil, fmt.Errorf("core: %w", arenaErr)
	}
	cs, err := cache.Fill(cfg.Platform, pl, fill)
	if err != nil {
		return nil, err
	}
	reg := cfg.Telemetry
	if reg == nil {
		reg = telemetry.NewRegistry(cfg.Platform.N)
	}
	in.Hotness = nil
	return &System{
		P:         cfg.Platform,
		Cache:     cs,
		Mechanism: cfg.Mechanism,
		policy:    policy,
		in:        in,
		reg:       reg,
		met:       newExtractMetrics(reg, cfg.Platform),
		refreshed: newRefreshSeries(reg),
		fl:        cfg.Flight,
	}, nil
}

// Placement returns the currently active placement.
func (s *System) Placement() *solver.Placement { return s.Cache.Snapshot().Extractor.Pl }

// PlacementVersion returns the published placement and its version from one
// load: version 1 after Build, incremented by every successful Refresh. Data
// gathered under an older version (staged prefetch rows) is subject to the
// bounded-staleness contract (DESIGN.md §6.4): it stays servable after a swap
// only within the caller's staleness window, instead of stalling every
// in-flight prefetch behind the new snapshot.
func (s *System) PlacementVersion() (*solver.Placement, uint64) {
	sn := s.Cache.Snapshot()
	return sn.Extractor.Pl, sn.Version
}

// Extractor returns the extractor for the currently active placement.
func (s *System) Extractor() *extract.Extractor { return s.Cache.Snapshot().Extractor }

// Functional reports whether Lookup can return real bytes (a Source was
// attached at Build time).
func (s *System) Functional() bool { return s.Cache.Functional() }

// Stats returns the modelled per-GPU access split.
func (s *System) Stats() []solver.HitStats {
	sn := s.Cache.Snapshot()
	return sn.Extractor.Pl.Stats(sn.Hotness)
}

// EstimatedTimes returns the §6.2 model's per-GPU extraction estimate.
func (s *System) EstimatedTimes() []float64 {
	return s.Placement().EstTimes
}

// Refresh re-solves the policy against new hotness and applies it per §7.2,
// returning the Fig.-17-style report. The system's placement, caches and
// extractor all switch to the new solution.
//
// Refresh is atomic with respect to failures: the solve and its validation
// run before anything is touched, and the cache layer publishes the new
// snapshot (placement, extractor, hotness, tables, arenas and the next
// version) in one swap under its writer lock, only after every batch applied
// cleanly. Concurrent lookups and extractions keep running against the old
// snapshot throughout. Consumers holding rows gathered under the outgoing
// placement (the serve layer's staging arena) may keep serving them for up
// to their configured staleness window of S batches instead of stalling
// behind the new snapshot — embedding content is immutable here, so
// staleness only affects tier classification, never row bytes.
func (s *System) Refresh(newHotness workload.Hotness, baseIterTime float64, cfg cache.RefreshConfig) (*cache.RefreshReport, error) {
	if n := s.Placement().NumEntries(); int64(len(newHotness)) != n {
		return nil, fmt.Errorf("core: hotness for %d entries, placement has %d", len(newHotness), n)
	}
	in := s.in
	in.Hotness = newHotness
	solveStart := time.Now()
	pl, err := s.policy.Solve(&in)
	if err != nil {
		return nil, err
	}
	solve := cache.SolveStats{WallSeconds: time.Since(solveStart).Seconds()}
	if err := pl.Validate(&in); err != nil {
		return nil, err
	}
	s.refreshed.active.Set(1)
	rep, err := s.Cache.Refresh(pl, newHotness, baseIterTime, cfg)
	s.refreshed.active.Set(0)
	if err != nil {
		return nil, err
	}
	// The real solve cost joins the simulated Fig. 17 replay in the one
	// report the series, the flight record and the caller all read.
	rep.Solve = solve
	s.refreshed.set(rep)
	if s.fl != nil {
		// One control record per applied refresh, its solve included; Seq is
		// the new placement version, so bundle readers can line refreshes up
		// against the staging arena's staleness decisions.
		e := refreshRecord(rep, pl, solveStart)
		e.Seq = int64(rep.Version)
		s.fl.RecordControl(&e)
	}
	return rep, nil
}

// ShouldRefresh implements the §7.2 trigger: re-evaluate the model with new
// hotness under the current placement and report whether the estimated
// extraction time degraded by more than threshold (e.g. 0.1 = 10%).
func (s *System) ShouldRefresh(newHotness workload.Hotness, threshold float64) (bool, error) {
	pl := s.Placement()
	if int64(len(newHotness)) != pl.NumEntries() {
		return false, fmt.Errorf("core: hotness length mismatch")
	}
	in := s.in
	in.Hotness = newHotness
	cur := maxOf(solver.EstimateTimes(&in, pl))
	old := maxOf(pl.EstTimes)
	if old == 0 {
		return cur > 0, nil
	}
	return cur > old*(1+threshold), nil
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}
