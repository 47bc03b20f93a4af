package core

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ugache/internal/cache"
	"ugache/internal/flight"
	"ugache/internal/telemetry"
	"ugache/internal/workload"
)

// RefreshMode selects how the controller decides when to re-solve.
type RefreshMode int

const (
	// RefreshOff disables the controller (checks become no-ops).
	RefreshOff RefreshMode = iota
	// RefreshPeriodic re-solves every PeriodBatches observed batches — the
	// paper's fixed-cadence §7.2 behaviour, blind to whether hotness moved.
	RefreshPeriodic
	// RefreshDrift re-solves only when the drift detector reports that the
	// sampled hotness moved past the threshold.
	RefreshDrift
)

// String renders the mode the way the -refresh-mode flag spells it, and an
// unknown mode by its number.
func (m RefreshMode) String() string {
	switch m {
	case RefreshOff:
		return "off"
	case RefreshPeriodic:
		return "periodic"
	case RefreshDrift:
		return "drift"
	}
	return fmt.Sprintf("refresh-mode(%d)", int(m))
}

// ParseRefreshMode parses a -refresh-mode flag value.
func ParseRefreshMode(s string) (RefreshMode, error) {
	switch strings.ToLower(s) {
	case "off", "":
		return RefreshOff, nil
	case "periodic":
		return RefreshPeriodic, nil
	case "drift":
		return RefreshDrift, nil
	}
	return RefreshOff, fmt.Errorf("core: unknown refresh mode %q (have off, periodic, drift)", s)
}

// ControllerConfig tunes the closed-loop refresh controller.
type ControllerConfig struct {
	// Mode picks the trigger policy (default RefreshOff).
	Mode RefreshMode
	// Sampler is the hotness sampler observing served batches (required for
	// any mode other than off; the serving engine feeds it).
	Sampler *cache.HotnessSampler
	// CheckEvery is the drift-check cadence in observed batches (default
	// 32). Checks are much cheaper than solves but not free — each one
	// merges the sampler shards and re-ranks the measured distribution.
	CheckEvery int
	// PeriodBatches is the blind-periodic re-solve cadence (default 512;
	// periodic mode only).
	PeriodBatches int
	// Drift configures the detector (drift mode only).
	Drift cache.DriftConfig
	// Refresh is the §7.2 replay configuration each triggered refresh uses
	// (zero value → cache.DefaultRefreshConfig()).
	Refresh cache.RefreshConfig
	// BaseIterTime is the foreground iteration seconds fed to Refresh's
	// impact replay (default 1e-3).
	BaseIterTime float64
	// Async runs triggered checks and refreshes on a background goroutine
	// (single-flight) so the serving worker that crossed the cadence
	// boundary never blocks on a solve. Synchronous mode (false) runs them
	// inline in BatchObserved — what benches and tests want.
	Async bool
}

func (c ControllerConfig) normalize() ControllerConfig {
	if c.CheckEvery <= 0 {
		c.CheckEvery = 32
	}
	if c.PeriodBatches <= 0 {
		c.PeriodBatches = 512
	}
	if c.BaseIterTime <= 0 {
		c.BaseIterTime = 1e-3
	}
	if c.Refresh == (cache.RefreshConfig{}) {
		c.Refresh = cache.DefaultRefreshConfig()
	}
	return c
}

// ControllerStats is a snapshot of the controller. Checks, Refreshes and
// Errors are read from the system's registry, so controllers of systems that
// share one registry read their sum (as serve.Stats does); the Last fields
// are this controller's own.
type ControllerStats struct {
	// Batches observed so far.
	Batches int64
	// Checks run over a non-empty window (drift mode: detector evaluations;
	// periodic: cadence evaluations that found the period elapsed, each a
	// refresh attempt, so Refreshes + Errors).
	Checks int64
	// Refreshes triggered and completed successfully.
	Refreshes int64
	// Errors from failed refreshes. An empty sampling window is neither a
	// check nor an error: the controller waits for traffic.
	Errors int64
	// LastDrift is the detector's last evaluation, Measured cleared (drift
	// mode; zero otherwise).
	LastDrift cache.DriftStatus
	// LastRefresh is the report of the last refresh the controller
	// triggered, nil before the first.
	LastRefresh *cache.RefreshReport
}

// Controller closes the §7.2 loop: it watches the serving stream through
// the hotness sampler and re-solves the placement either on a fixed cadence
// (periodic) or when measured drift crosses the threshold (drift). The
// serving engine calls BatchObserved once per coalesced batch; everything
// else is internal.
type Controller struct {
	sys *System
	cfg ControllerConfig
	det *cache.DriftDetector

	batches   atomic.Int64
	lastCheck atomic.Int64 // batch count at the last cadence boundary

	inflight atomic.Bool
	wg       sync.WaitGroup

	// mu serializes the check-and-refresh critical section (tick callers
	// racing the async path).
	mu            sync.Mutex
	lastRefreshAt int64 // batch count at the last successful refresh
	// minWindow is the drift-mode maturity gate. A refresh rebases the
	// detector onto a *sampled* window, and sample-vs-sample comparison is
	// noisier than sample-vs-reference — small trigger windows leave enough
	// selection bias at the top-K boundary to re-trigger on noise alone. So
	// each drift refresh doubles the window the next one needs (capped at
	// the detector's MaxBatches), and any quiet check re-arms the fast
	// MinBatches gate. Genuine sustained drift still refreshes promptly,
	// with each re-solve using a strictly cleaner hotness estimate.
	minWindow int

	lastDrift   atomic.Pointer[cache.DriftStatus]
	lastRefresh atomic.Pointer[cache.RefreshReport]

	refreshes, errs *telemetry.Counter
	drift           *driftSeries // drift mode only
}

// driftSeries are the drift checks' series; recordCheck is their one writer.
type driftSeries struct {
	checks   *telemetry.Counter
	score    *telemetry.Gauge
	overlap  *telemetry.Gauge
	rankDist *telemetry.Gauge
	batches  *telemetry.Gauge
}

// NewController builds a controller for a built system. The detector's
// reference starts at the hotness the system's current placement was solved
// against.
func NewController(sys *System, cfg ControllerConfig) (*Controller, error) {
	if sys == nil {
		return nil, fmt.Errorf("core: controller needs a system")
	}
	if cfg.Mode < RefreshOff || cfg.Mode > RefreshDrift {
		return nil, fmt.Errorf("core: unknown refresh mode %s (have off, periodic, drift)", cfg.Mode)
	}
	cfg = cfg.normalize()
	c := &Controller{sys: sys, cfg: cfg}
	if cfg.Mode == RefreshOff {
		return c, nil
	}
	if cfg.Sampler == nil {
		return nil, fmt.Errorf("core: %s refresh mode needs a sampler", cfg.Mode)
	}
	if cfg.Mode == RefreshDrift {
		det, err := cache.NewDriftDetector(cfg.Sampler, sys.Cache.Snapshot().Hotness, cfg.Drift)
		if err != nil {
			return nil, err
		}
		c.det = det
		c.minWindow = det.Config().MinBatches
		reg := sys.reg
		c.drift = &driftSeries{
			checks:   reg.Counter("cache_drift_checks_total", "hotness-drift checks performed"),
			score:    reg.Gauge("cache_drift_score", "last drift check's score: max(1 - top-K overlap, weighted rank distance)"),
			overlap:  reg.Gauge("cache_drift_topk_overlap", "last drift check's top-K hotness overlap with the placement's reference"),
			rankDist: reg.Gauge("cache_drift_rank_distance", "last drift check's reference-weighted normalized rank displacement"),
			batches:  reg.Gauge("cache_drift_window_batches", "sampled batches the last drift check's window covered"),
		}
	}
	c.refreshes = sys.reg.Counter("cache_refresh_triggered_total", "refreshes triggered by the controller")
	c.errs = sys.reg.Counter("cache_refresh_controller_errors_total", "controller check/refresh failures")
	return c, nil
}

// Config returns the configuration the controller runs with: the one it was
// given, its zero cadences and refresh settings filled with their defaults.
func (c *Controller) Config() ControllerConfig { return c.cfg }

// Detector returns the drift detector (nil outside drift mode).
func (c *Controller) Detector() *cache.DriftDetector { return c.det }

// BatchObserved notes one served batch. When the check cadence elapses it
// evaluates the trigger policy — inline when the controller is synchronous,
// on a single-flight background goroutine when Async. It returns whether a
// refresh was performed (always false on the async path, which reports
// through Stats instead).
func (c *Controller) BatchObserved() bool {
	if c.cfg.Mode == RefreshOff {
		return false
	}
	n := c.batches.Add(1)
	last := c.lastCheck.Load()
	if n-last < int64(c.cfg.CheckEvery) || !c.lastCheck.CompareAndSwap(last, n) {
		return false
	}
	if !c.cfg.Async {
		refreshed, _ := c.tick()
		return refreshed
	}
	// Single-flight: if a previous check or refresh is still running, skip
	// this boundary; the next one re-evaluates against fresher samples.
	if !c.inflight.CompareAndSwap(false, true) {
		return false
	}
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		defer c.inflight.Store(false)
		c.tick()
	}()
	return false
}

// tick evaluates the trigger policy once, synchronously, and performs the
// refresh when it fires. Benches and tests drive the loop with it directly.
func (c *Controller) tick() (refreshed bool, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cfg.Mode == RefreshOff || c.cfg.Sampler.Batches() == 0 {
		return false, nil // nothing sampled yet: wait for traffic
	}
	if c.cfg.Mode == RefreshPeriodic {
		refreshed, err = c.tickPeriodic()
	} else {
		refreshed, err = c.tickDrift()
	}
	if err != nil {
		c.errs.Add(0, 1)
	}
	return refreshed, err
}

// tickPeriodic fires when PeriodBatches elapsed since the last refresh.
func (c *Controller) tickPeriodic() (bool, error) {
	n := c.batches.Load()
	if n-c.lastRefreshAt < int64(c.cfg.PeriodBatches) {
		return false, nil
	}
	measured, err := c.cfg.Sampler.Hotness()
	if err == nil {
		err = c.refresh(measured, n)
	}
	return err == nil, err
}

// tickDrift checks the detector and fires on drift.
func (c *Controller) tickDrift() (bool, error) {
	st, err := c.det.Check()
	if err != nil {
		return false, err
	}
	c.recordCheck(st)
	if !st.Drifted {
		c.minWindow = c.det.Config().MinBatches // quiet: re-arm fast reaction
		return false, nil
	}
	if st.Batches < c.minWindow {
		// Drifted, but the reference is a recent sampled rebase and this
		// window is not yet larger than the one that produced it — wait for
		// a cleaner estimate before solving again.
		return false, nil
	}
	// The detector's measured buffer is reused by the next Check; the
	// refresh keeps its hotness, so copy.
	measured := append(workload.Hotness(nil), st.Measured...)
	if err := c.refresh(measured, c.batches.Load()); err != nil {
		return false, err
	}
	if mw := 2 * st.Batches; mw > c.minWindow {
		c.minWindow = mw
	}
	if cap := c.det.Config().MaxBatches; c.minWindow > cap {
		c.minWindow = cap
	}
	return true, nil
}

// refresh re-solves against the measured hotness, then restarts the
// observation window: the sampler resets and the detector rebases to the
// distribution the new placement assumes.
func (c *Controller) refresh(measured workload.Hotness, atBatch int64) error {
	rep, err := c.sys.Refresh(measured, c.cfg.BaseIterTime, c.cfg.Refresh)
	if err != nil {
		return err
	}
	c.lastRefreshAt = atBatch
	c.lastRefresh.Store(rep)
	c.refreshes.Add(0, 1)
	c.cfg.Sampler.Reset()
	if c.det != nil {
		if err := c.det.Rebase(measured); err != nil {
			return err
		}
	}
	return nil
}

// recordCheck is the one writer of a drift evaluation: it keeps the status
// for Stats (its Measured buffer is the detector's, reused by the next
// Check), sets the drift series and records it into the flight control
// ring, when the system has one, where it survives into diagnostic bundles
// and a timeline draws it as a drift-check instant.
func (c *Controller) recordCheck(st cache.DriftStatus) {
	st.Measured = nil
	c.lastDrift.Store(&st)
	m := c.drift
	m.checks.Add(0, 1)
	m.score.Set(st.Score)
	m.overlap.Set(st.TopKOverlap)
	m.rankDist.Set(st.RankDistance)
	m.batches.Set(float64(st.Batches))
	fl := c.sys.fl
	if fl == nil {
		return
	}
	e := flight.Event{Kind: flight.KindDrift, GPU: -1, UnixNanos: time.Now().UnixNano()}
	e.V[flight.DriftScore] = st.Score
	e.V[flight.DriftTopKOverlap] = st.TopKOverlap
	e.V[flight.DriftRankDistance] = st.RankDistance
	e.V[flight.DriftWindowBatches] = float64(st.Batches)
	if st.Drifted {
		e.V[flight.DriftDrifted] = 1
	}
	fl.RecordControl(&e)
}

// Wait blocks until any in-flight async check/refresh finished. Call at
// shutdown before reading final stats.
func (c *Controller) Wait() { c.wg.Wait() }

// Stats snapshots the controller.
func (c *Controller) Stats() ControllerStats {
	st := ControllerStats{Batches: c.batches.Load(), LastRefresh: c.lastRefresh.Load()}
	if c.cfg.Mode == RefreshOff {
		return st
	}
	st.Refreshes, st.Errors = c.refreshes.Value(), c.errs.Value()
	st.Checks = st.Refreshes + st.Errors
	if c.drift != nil {
		st.Checks = c.drift.checks.Value()
	}
	if ds := c.lastDrift.Load(); ds != nil {
		st.LastDrift = *ds
	}
	return st
}
