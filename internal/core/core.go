// Package core assembles UGache (paper §4): given a platform, hotness
// statistics, and per-GPU cache capacity, Build profiles the platform,
// solves the cache policy (Solver), fills the caches (Filler), and serves
// batched lookups through the factored Extractor. Refresh re-solves against
// new hotness in the background and applies the diff with bounded
// foreground impact (§7.2).
//
// A built System is safe for concurrent use: lookups and extractions read
// an immutable engine state (placement + extractor) behind an atomic
// pointer, and Refresh publishes a fully built replacement state only
// after every fallible step succeeded. The cache layer underneath applies
// the same snapshot-swap discipline to its hash tables and arenas.
//
// This package is the internal engine behind the public ugache package at
// the module root.
package core

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
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
	// BlockBudget caps solver blocks (0 = solver default).
	BlockBudget int
	// Placement, when non-nil, skips solving and uses this pre-solved
	// placement — loaded with solver.LoadPlacement, or another System's
	// (the nodes of a cluster solve once and share it: a placement is
	// read-only once built, and the Owned shard is not part of it). It is
	// validated against the rest of the config.
	Placement *solver.Placement
	// Owned, on clustered platforms, reports whether this machine's host
	// shard owns a key: owned network-class keys are served over the local
	// host path instead of crossing the wire (extract.Extractor.Owned). The
	// serve layer's cluster router passes its hash-ring shard predicate
	// here. Ignored on single-machine platforms.
	Owned func(key int64) bool
	// Telemetry, when non-nil, receives the engine's extraction metrics
	// (simulated time split by source tier, per-tier cache-hit key
	// counters, each link's mean utilization over the last extraction) and
	// the cache layer's refresh gauges. Nil disables instrumentation
	// entirely — the no-op fast path is a single nil check per extraction.
	Telemetry *telemetry.Registry
	// Flight, when non-nil, receives control-plane flight records into the
	// recorder's shared control ring (DESIGN.md §6.6): every completed
	// Refresh (cache.RefreshReport.Record: the solve, the applied delta and
	// its Fig. 17 layout, the placement's storage summary) and every drift
	// evaluation from an attached controller. They are the only store of
	// those facts: the recorder's trace draws its control track from the
	// ring (flight.Draw).
	Flight *flight.Recorder
}

// engineState is the immutable placement-derived state one extraction or
// model query reads. Refresh swaps the whole struct at once.
type engineState struct {
	placement *solver.Placement
	extractor *extract.Extractor
	input     solver.Input
	// version counts published placements: Build stores 1, every Refresh
	// increments. Consumers holding data derived from an older version (the
	// serve layer's staging arena) use it to enforce the bounded-staleness
	// contract: rows gathered under version v remain servable after a swap to
	// v+1 only within the caller's staleness window of S batches, instead of
	// stalling every in-flight prefetch behind the new snapshot.
	version uint64
}

// System is a built UGache instance.
type System struct {
	P         *platform.Platform
	Cache     *cache.System
	Mechanism extract.Mechanism

	policy   solver.Policy
	capacity []int64
	owned    func(key int64) bool // cluster shard-ownership predicate, nil off-cluster

	// refreshMu serializes Refresh calls; readers never take it.
	refreshMu sync.Mutex
	state     atomic.Pointer[engineState]

	// met is nil unless Config.Telemetry was set; every extraction then
	// reports its per-tier split through lock-free shard updates.
	met *extractMetrics
	// fl is nil unless Config.Flight was set; Refresh and any attached
	// controller then record control-plane flight events.
	fl *flight.Recorder
}

// extractMetrics splits the modelled extraction work by source tier — the
// quantity the §6.2 model predicts and Fig. 13/14 report. Second splits are
// the serial per-tier estimates (bytes x time-per-byte); tiers overlap in
// the simulated schedule, so they sum to more than the makespan.
type extractMetrics struct {
	batches    *telemetry.Counter
	simSeconds *telemetry.FloatCounter
	tierKeys   [4]*telemetry.Counter      // local, remote, host, network
	tierSecs   [4]*telemetry.FloatCounter // local, remote, host, network
	tpb        [][]float64                // TimePerByteTable (Path allocates; this is the hot path)

	// linkUtil[l] is link l's last-run mean utilization gauge; linkCap
	// caches capacities so the update path never touches the topology.
	linkUtil []*telemetry.Gauge
	linkCap  []float64
}

const (
	tierLocal = iota
	tierRemote
	tierHost
	tierNetwork
)

func newExtractMetrics(reg *telemetry.Registry, p *platform.Platform) *extractMetrics {
	return &extractMetrics{
		tpb:        p.TimePerByteTable(),
		batches:    reg.Counter("core_extract_batches_total", "simulated extraction batches"),
		simSeconds: reg.FloatCounter("core_extract_sim_seconds_total", "simulated extraction makespan seconds"),
		tierKeys: [4]*telemetry.Counter{
			tierLocal:   reg.Counter("core_hit_local_keys_total", "keys served from the local GPU cache partition"),
			tierRemote:  reg.Counter("core_hit_remote_keys_total", "keys served from peer GPU caches"),
			tierHost:    reg.Counter("core_hit_host_keys_total", "keys falling through to host memory"),
			tierNetwork: reg.Counter("core_hit_network_keys_total", "keys fetched from remote machines over the network tier"),
		},
		tierSecs: [4]*telemetry.FloatCounter{
			tierLocal:   reg.FloatCounter("core_extract_local_seconds_total", "modelled seconds moving local-tier bytes"),
			tierRemote:  reg.FloatCounter("core_extract_remote_seconds_total", "modelled seconds moving remote-tier bytes"),
			tierHost:    reg.FloatCounter("core_extract_host_seconds_total", "modelled seconds moving host-tier bytes"),
			tierNetwork: reg.FloatCounter("core_extract_network_seconds_total", "modelled seconds moving network-tier bytes"),
		},
		linkUtil: linkUtilGauges(reg, p),
		linkCap:  linkCapacities(p),
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

func linkCapacities(p *platform.Platform) []float64 {
	out := make([]float64, len(p.Topo.Links))
	for l, link := range p.Topo.Links {
		out[l] = link.Capacity
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
// destination GPU, the per-tier key counts and serial time estimates
// derived from the source-volume matrix (which reflects the placement
// snapshot the batch resolved against). Counter updates shard by
// destination GPU, so concurrent serving workers do not contend.
func (s *System) observeExtract(res *extract.Result) {
	m := s.met
	entryBytes := float64(s.Cache.EntryBytes)
	host := int(s.P.Host())
	network := -1
	if s.P.HasNetwork() {
		network = int(s.P.Network())
	}
	shard := 0 // first active destination; serving batches have exactly one
	for g, row := range res.SrcBytes {
		active := false
		for j, bytes := range row {
			if bytes == 0 {
				continue
			}
			active = true
			tier := tierRemote
			switch j {
			case g:
				tier = tierLocal
			case host:
				tier = tierHost
			case network:
				tier = tierNetwork
			}
			m.tierKeys[tier].Add(g, int64(bytes/entryBytes))
			m.tierSecs[tier].Add(g, bytes*m.tpb[g][j])
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
			if capacity := m.linkCap[l]; capacity > 0 {
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
		P:           cfg.Platform,
		Hotness:     cfg.Hotness,
		EntryBytes:  cfg.EntryBytes,
		Capacity:    capacity,
		BlockBudget: cfg.BlockBudget,
	}
	fill := cache.FillOptions{CapacityEntries: capacity, Source: cfg.Source}
	var arenaErr error
	var making sync.WaitGroup // the goroutine setting fill.Arenas and arenaErr
	if cfg.Source != nil {
		// The Filler sizes its arenas by the placement's row size; a
		// pre-solved placement states its own.
		entryBytes := int64(cfg.EntryBytes)
		if cfg.Placement != nil {
			entryBytes = int64(cfg.Placement.EntryBytes)
		}
		making.Add(1)
		go func() {
			defer making.Done()
			fill.Arenas, arenaErr = cache.NewArenas(cfg.Platform.N, capPer*entryBytes)
		}()
	}
	pl, err := placementFor(&cfg, &in, policy)
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
	ex, err := extract.New(cfg.Platform, pl)
	if err != nil {
		return nil, err
	}
	s := &System{
		P:         cfg.Platform,
		Cache:     cs,
		Mechanism: cfg.Mechanism,
		policy:    policy,
		capacity:  capacity,
		fl:        cfg.Flight,
	}
	if cfg.Platform.HasNetwork() {
		s.owned = cfg.Owned
		ex.Owned = s.owned
	}
	if cfg.Telemetry != nil {
		s.met = newExtractMetrics(cfg.Telemetry, cfg.Platform)
		cs.SetTelemetry(cfg.Telemetry)
	}
	s.state.Store(&engineState{placement: pl, extractor: ex, input: in, version: 1})
	return s, nil
}

// placementFor solves the policy, or takes cfg.Placement, and validates the
// result against in.
func placementFor(cfg *Config, in *solver.Input, policy solver.Policy) (*solver.Placement, error) {
	pl := cfg.Placement
	if pl == nil {
		solved, err := policy.Solve(in)
		if err != nil {
			return nil, fmt.Errorf("core: policy %s: %w", policy.Name(), err)
		}
		pl = solved
	} else if len(pl.EstTimes) == 0 {
		pl.EstTimes = solver.EstimateTimes(in, pl)
	}
	if err := pl.Validate(in); err != nil {
		return nil, fmt.Errorf("core: policy %s produced invalid placement: %w", policy.Name(), err)
	}
	return pl, nil
}

// Placement returns the currently active placement.
func (s *System) Placement() *solver.Placement { return s.state.Load().placement }

// PlacementVersion returns the published placement's version: 1 after Build,
// incremented by every successful Refresh. Data gathered under an older
// version (staged prefetch rows) is subject to the bounded-staleness
// contract documented on engineState.
func (s *System) PlacementVersion() uint64 { return s.state.Load().version }

// Extractor returns the extractor for the currently active placement.
func (s *System) Extractor() *extract.Extractor { return s.state.Load().extractor }

// Functional reports whether Lookup can return real bytes (a Source was
// attached at Build time).
func (s *System) Functional() bool { return s.Cache.Functional() }

// ExtractBatch simulates one iteration's extraction with the configured
// mechanism and returns the timing result, which the caller owns.
func (s *System) ExtractBatch(b *extract.Batch) (*extract.Result, error) {
	return s.ExtractBatchWith(b, nil)
}

// ExtractWith simulates one extraction with an explicit mechanism
// (baseline comparisons). Telemetry only tracks the configured mechanism,
// so baseline sweeps do not pollute the serving counters.
func (s *System) ExtractWith(m extract.Mechanism, b *extract.Batch) (*extract.Result, error) {
	return s.state.Load().extractor.Run(m, b)
}

// Lookup functionally gathers rows for GPU dst into out; requires a Source.
func (s *System) Lookup(dst int, keys []int64, out []byte) error {
	return s.LookupWith(dst, keys, out, nil)
}

// Stats returns the modelled per-GPU access split.
func (s *System) Stats() []solver.HitStats {
	st := s.state.Load()
	return st.placement.Stats(st.input.Hotness)
}

// EstimatedTimes returns the §6.2 model's per-GPU extraction estimate.
func (s *System) EstimatedTimes() []float64 {
	return s.state.Load().placement.EstTimes
}

// Refresh re-solves the policy against new hotness and applies it per §7.2,
// returning the Fig.-17-style report. The system's placement, caches and
// extractor all switch to the new solution.
//
// Refresh is atomic with respect to failures: the new extractor is built
// before anything is committed, and the placement/input/extractor triple is
// published in one swap only after the cache refresh succeeded. Concurrent
// lookups and extractions keep running against the old state throughout.
// The swap bumps PlacementVersion; consumers holding rows gathered under
// the outgoing placement (the serve layer's staging arena) may keep serving
// them for up to their configured staleness window of S batches instead of
// stalling behind the new snapshot — embedding content is immutable here,
// so staleness only affects tier classification, never row bytes.
func (s *System) Refresh(newHotness workload.Hotness, baseIterTime float64, cfg cache.RefreshConfig) (*cache.RefreshReport, error) {
	s.refreshMu.Lock()
	defer s.refreshMu.Unlock()
	old := s.state.Load()
	if int64(len(newHotness)) != old.placement.NumEntries() {
		return nil, fmt.Errorf("core: hotness for %d entries, placement has %d",
			len(newHotness), old.placement.NumEntries())
	}
	in := old.input
	in.Hotness = newHotness
	solveStart := time.Now()
	pl, err := s.policy.Solve(&in)
	if err != nil {
		return nil, err
	}
	solveWall := time.Since(solveStart).Seconds()
	if err := pl.Validate(&in); err != nil {
		return nil, err
	}
	// Surface the real solve cost next to the simulated Fig. 17 replay: the
	// cache layer publishes these through its solve-wall gauges, and they
	// join the refresh's flight record.
	cfg.Solve = &cache.SolveStats{WallSeconds: solveWall}
	// Build every fallible piece before touching shared state, so a failed
	// refresh leaves the old placement, caches and extractor paired.
	ex, err := extract.New(s.P, pl)
	if err != nil {
		return nil, err
	}
	ex.Owned = s.owned
	rep, err := s.Cache.Refresh(pl, baseIterTime, cfg)
	if err != nil {
		return nil, err
	}
	s.state.Store(&engineState{placement: pl, extractor: ex, input: in, version: old.version + 1})
	if s.fl != nil {
		// One control record per applied refresh, its solve included; Seq is
		// the new placement version, so bundle readers can line refreshes up
		// against the staging arena's staleness decisions.
		e := rep.Record(pl, solveStart)
		e.Seq = int64(old.version + 1)
		s.fl.RecordControl(&e)
	}
	return rep, nil
}

// ShouldRefresh implements the §7.2 trigger: re-evaluate the model with new
// hotness under the current placement and report whether the estimated
// extraction time degraded by more than threshold (e.g. 0.1 = 10%).
func (s *System) ShouldRefresh(newHotness workload.Hotness, threshold float64) (bool, error) {
	st := s.state.Load()
	if int64(len(newHotness)) != st.placement.NumEntries() {
		return false, fmt.Errorf("core: hotness length mismatch")
	}
	in := st.input
	in.Hotness = newHotness
	cur := maxOf(solver.EstimateTimes(&in, st.placement))
	old := maxOf(st.placement.EstTimes)
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
