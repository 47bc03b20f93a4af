package flight

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"sync"
	"time"

	"ugache/internal/telemetry"
)

// SLO is the serving objective set the watchdog enforces. A zero field
// disables its signal, so the zero value is a fully disarmed watchdog that
// still records, serves /debug/flight, and honors manual bundle triggers.
type SLO struct {
	// P99 is the admitted-request p99 latency target, evaluated over the
	// short and long windows of serve_request_latency_seconds.
	P99 time.Duration
	// MaxShedRatio is the tolerated shed fraction of admission attempts
	// (serve_rejected_total / (requests + rejected)) per window.
	MaxShedRatio float64
	// MaxQueueFrac is the tolerated admission-queue depth as a fraction of
	// the admission ring capacity (peak over each window).
	MaxQueueFrac float64
	// MaxSolveWall is the refresh policy-solve wall-clock budget; the
	// signal fires only when a refresh actually completed inside the window.
	MaxSolveWall time.Duration
	// MaxPrefetchDropRatio is the tolerated dropped fraction of announced
	// lookahead windows per window.
	MaxPrefetchDropRatio float64
}

// WatchdogConfig wires a watchdog to its sources.
type WatchdogConfig struct {
	SLO SLO
	// Interval is the tick period of Start's background loop (default
	// 200ms). Tests drive Tick directly instead.
	Interval time.Duration
	// ShortWindow and LongWindow are the burn-rate evaluation windows in
	// ticks (defaults 3 and 15). A signal trips only when it is violated
	// over both — the multi-window discipline that keeps one slow batch
	// from burning a bundle while still catching sustained burn fast.
	ShortWindow, LongWindow int
	// Cooldown is the minimum spacing between automatic bundles (default
	// 30s). Manual triggers ignore it.
	Cooldown time.Duration
	// Registry is the telemetry the signals are computed from (required).
	Registry *telemetry.Registry
	// Recorder supplies the exemplar scan and the bundled flight.jsonl.
	Recorder *Recorder
	// QueueCapacity is the per-GPU admission ring capacity the
	// saturation signal is measured against (0 disables that signal).
	QueueCapacity int
	// Bundle configures where and what trips write.
	Bundle BundleConfig
	// OnBundle, when non-nil, is called after every bundle attempt
	// (automatic or manual) with the bundle path or error.
	OnBundle func(path string, err error)
}

func (c WatchdogConfig) normalize() WatchdogConfig {
	if c.Interval <= 0 {
		c.Interval = 200 * time.Millisecond
	}
	if c.ShortWindow <= 0 {
		c.ShortWindow = 3
	}
	if c.LongWindow <= c.ShortWindow {
		c.LongWindow = 5 * c.ShortWindow
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 30 * time.Second
	}
	return c
}

// SignalState is one SLO signal's last evaluation.
type SignalState struct {
	Name string `json:"name"`
	// Short and Long are the signal's value over the two windows.
	Short     float64 `json:"short"`
	Long      float64 `json:"long"`
	Threshold float64 `json:"threshold"`
	// Breached is true when both windows violated the threshold.
	Breached bool `json:"breached"`
}

// State is a watchdog snapshot, served at /debug/flight and embedded in
// bundle manifests.
type State struct {
	// Armed reports whether any SLO signal is enabled.
	Armed bool `json:"armed"`
	// Ticks counts evaluations, Trips automatic bundle triggers.
	Ticks int64 `json:"ticks"`
	Trips int64 `json:"trips"`
	// LastTripUnixNanos is when the watchdog last tripped (0 = never).
	LastTripUnixNanos int64 `json:"last_trip_unix_nanos,omitempty"`
	// LastBundlePath and LastBundleErr describe the most recent bundle
	// attempt, manual or automatic.
	LastBundlePath string `json:"last_bundle_path,omitempty"`
	LastBundleErr  string `json:"last_bundle_err,omitempty"`
	// Signals holds every enabled signal's last evaluation.
	Signals []SignalState `json:"signals,omitempty"`
	// Exemplar is the slowest batch seen in the last long window (shared
	// with the watchdog: read-only).
	Exemplar *Exemplar `json:"exemplar,omitempty"`
}

// snap is one tick's cumulative readings; window values are diffs between
// snaps.
type snap struct {
	at         int64 // unix nanos
	requests   int64
	rejected   int64
	pfWindows  int64
	pfDropped  int64
	refreshes  int64
	latCounts  []uint64 // per-bucket, cumulative
	queueDepth float64  // last-observed combined depth (gauge)
	solveWall  float64  // last refresh solve wall seconds (gauge)
}

// Watchdog evaluates rolling SLO windows over the live telemetry and dumps
// a diagnostic bundle when one trips. All methods are safe for concurrent
// use; Tick is cheap enough to run every few hundred milliseconds (it reads
// sharded atomics and diffs histogram buckets — no locks on any hot path).
type Watchdog struct {
	cfg WatchdogConfig
	// now is the watchdog's one clock: snapshot timestamps and the trip
	// cooldown both read it, so tests advance a fake instead of sleeping.
	now func() time.Time

	mu       sync.Mutex
	snaps    []snap // oldest first, at most LongWindow+1
	state    State
	lastTrip time.Time

	// resolved metric handles (lazily; registration order is not ours).
	latency   *telemetry.Histogram
	bounds    []float64
	requests  *telemetry.Counter
	rejected  *telemetry.Counter
	pfWindows *telemetry.Counter
	pfDropped *telemetry.Counter
	refreshes *telemetry.Counter
	qDepth    *telemetry.Gauge
	solveWall *telemetry.Gauge

	done chan struct{}
	wg   sync.WaitGroup
	once sync.Once
}

// NewWatchdog builds a watchdog; call Start to run its background loop or
// Tick to drive it manually.
func NewWatchdog(cfg WatchdogConfig) (*Watchdog, error) {
	cfg = cfg.normalize()
	if cfg.Registry == nil {
		return nil, fmt.Errorf("flight: watchdog needs a telemetry registry")
	}
	w := &Watchdog{cfg: cfg, now: time.Now, done: make(chan struct{})}
	w.state.Armed = cfg.SLO != (SLO{})
	return w, nil
}

// Armed reports whether any SLO signal is enabled.
func (w *Watchdog) Armed() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.state.Armed
}

// Start launches the periodic evaluation loop; Close stops it.
func (w *Watchdog) Start() {
	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		t := time.NewTicker(w.cfg.Interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				w.Tick()
			case <-w.done:
				return
			}
		}
	}()
}

// Close stops the background loop and waits for it; safe to call more than
// once and without Start.
func (w *Watchdog) Close() {
	w.once.Do(func() { close(w.done) })
	w.wg.Wait()
}

// resolve looks up metric handles that exist by now; missing metrics stay
// nil and their signals read as zero.
func (w *Watchdog) resolve() {
	reg := w.cfg.Registry
	if w.latency == nil {
		if h, ok := reg.Find("serve_request_latency_seconds").(*telemetry.Histogram); ok {
			w.latency = h
			w.bounds, _ = h.Buckets()
		}
	}
	find := func(dst **telemetry.Counter, name string) {
		if *dst == nil {
			if c, ok := reg.Find(name).(*telemetry.Counter); ok {
				*dst = c
			}
		}
	}
	find(&w.requests, "serve_requests_total")
	find(&w.rejected, "serve_rejected_total")
	find(&w.pfWindows, "serve_prefetch_windows_total")
	find(&w.pfDropped, "serve_prefetch_dropped_windows_total")
	find(&w.refreshes, "cache_refresh_total")
	if w.qDepth == nil {
		if g, ok := reg.Find("serve_queue_depth_last").(*telemetry.Gauge); ok {
			w.qDepth = g
		}
	}
	if w.solveWall == nil {
		if g, ok := reg.Find("cache_refresh_last_solve_wall_seconds").(*telemetry.Gauge); ok {
			w.solveWall = g
		}
	}
}

func counterVal(c *telemetry.Counter) int64 {
	if c == nil {
		return 0
	}
	return c.Value()
}

func gaugeVal(g *telemetry.Gauge) float64 {
	if g == nil {
		return 0
	}
	return g.Value()
}

// take reads one cumulative snapshot.
func (w *Watchdog) take() snap {
	s := snap{
		at:         w.now().UnixNano(),
		requests:   counterVal(w.requests),
		rejected:   counterVal(w.rejected),
		pfWindows:  counterVal(w.pfWindows),
		pfDropped:  counterVal(w.pfDropped),
		refreshes:  counterVal(w.refreshes),
		queueDepth: gaugeVal(w.qDepth),
		solveWall:  gaugeVal(w.solveWall),
	}
	if w.latency != nil {
		_, s.latCounts = w.latency.Buckets()
	}
	return s
}

// diffCounts returns b-a per bucket (nil-tolerant).
func diffCounts(a, b []uint64) []uint64 {
	if len(b) == 0 {
		return nil
	}
	out := make([]uint64, len(b))
	for i := range b {
		var av uint64
		if i < len(a) {
			av = a[i]
		}
		out[i] = b[i] - av
	}
	return out
}

// ratio is a/(a+b) with a zero denominator reading 0.
func ratio(a, b int64) float64 {
	if a+b <= 0 {
		return 0
	}
	return float64(a) / float64(a+b)
}

// evaluate computes every enabled signal over the short and long windows.
// Caller holds w.mu; snaps has at least 2 entries.
func (w *Watchdog) evaluate() []SignalState {
	slo := w.cfg.SLO
	cur := &w.snaps[len(w.snaps)-1]
	shortBase := &w.snaps[max(0, len(w.snaps)-1-w.cfg.ShortWindow)]
	longBase := &w.snaps[0]
	var out []SignalState

	windowed := func(name string, thr float64, f func(base *snap) float64) {
		st := SignalState{Name: name, Threshold: thr,
			Short: f(shortBase), Long: f(longBase)}
		st.Breached = st.Short > thr && st.Long > thr
		out = append(out, st)
	}
	if slo.P99 > 0 && w.latency != nil {
		windowed("admitted_p99_seconds", slo.P99.Seconds(), func(base *snap) float64 {
			return telemetry.QuantileFromBuckets(w.bounds, diffCounts(base.latCounts, cur.latCounts), 0.99)
		})
	}
	if slo.MaxShedRatio > 0 {
		windowed("shed_ratio", slo.MaxShedRatio, func(base *snap) float64 {
			return ratio(cur.rejected-base.rejected, cur.requests-base.requests)
		})
	}
	if slo.MaxQueueFrac > 0 && w.cfg.QueueCapacity > 0 {
		cap := float64(w.cfg.QueueCapacity)
		windowed("queue_saturation", slo.MaxQueueFrac, func(base *snap) float64 {
			// Peak observed gauge over the window's snaps.
			peak := 0.0
			for i := range w.snaps {
				if w.snaps[i].at >= base.at && w.snaps[i].queueDepth > peak {
					peak = w.snaps[i].queueDepth
				}
			}
			return peak / cap
		})
	}
	if slo.MaxSolveWall > 0 {
		windowed("refresh_solve_wall_seconds", slo.MaxSolveWall.Seconds(), func(base *snap) float64 {
			if cur.refreshes == base.refreshes {
				return 0 // no refresh completed in this window
			}
			return cur.solveWall
		})
	}
	if slo.MaxPrefetchDropRatio > 0 {
		windowed("prefetch_drop_ratio", slo.MaxPrefetchDropRatio, func(base *snap) float64 {
			return ratio(cur.pfDropped-base.pfDropped, cur.pfWindows-base.pfWindows)
		})
	}
	return out
}

// Tick takes one snapshot, evaluates the windows, refreshes the exemplar,
// and writes a bundle when a signal trips outside the cooldown. It returns
// whether this tick tripped.
func (w *Watchdog) Tick() bool {
	w.mu.Lock()
	w.resolve()
	s := w.take()
	w.snaps = append(w.snaps, s)
	if len(w.snaps) > w.cfg.LongWindow+1 {
		w.snaps = w.snaps[1:]
	}
	w.state.Ticks++
	if len(w.snaps) < 2 {
		w.mu.Unlock()
		return false
	}
	signals := w.evaluate()
	w.state.Signals = signals
	if w.cfg.Recorder != nil {
		w.state.Exemplar = w.cfg.Recorder.exemplar(w.snaps[0].at, nil)
	}
	var breached []string
	for _, sig := range signals {
		if sig.Breached {
			breached = append(breached, sig.Name)
		}
	}
	now := w.now()
	// Automatic trips wait for a full short window of history — a cold-start
	// tick where both "windows" collapse onto one diff must not burn the
	// cooldown on a single slow batch.
	trip := len(breached) > 0 && len(w.snaps) > w.cfg.ShortWindow &&
		now.Sub(w.lastTrip) >= w.cfg.Cooldown
	if !trip {
		w.mu.Unlock()
		return false
	}
	w.lastTrip = now
	w.state.Trips++
	w.state.LastTripUnixNanos = now.UnixNano()
	reason := "slo:" + strings.Join(breached, ",")
	since := w.snaps[0].at
	violations := append([]SignalState(nil), signals...)
	w.mu.Unlock()

	// The bundle write happens outside the lock: it drains rings, renders
	// the timeline and collects profiles, none of which should block State
	// readers or the next tick's evaluation.
	path, err := WriteBundle(w.cfg.Bundle, reason, violations, since)
	w.noteBundle(path, err)
	return true
}

// TriggerBundle writes a bundle immediately (manual trigger: the /debug
// endpoint, SIGQUIT), ignoring the cooldown. The current signal state and
// exemplar ride along.
func (w *Watchdog) TriggerBundle(reason string) (string, error) {
	if reason == "" {
		reason = "manual"
	}
	w.mu.Lock()
	violations := append([]SignalState(nil), w.state.Signals...)
	since := int64(0)
	if len(w.snaps) > 0 {
		since = w.snaps[0].at
	}
	w.mu.Unlock()
	path, err := WriteBundle(w.cfg.Bundle, reason, violations, since)
	w.noteBundle(path, err)
	return path, err
}

func (w *Watchdog) noteBundle(path string, err error) {
	w.mu.Lock()
	w.state.LastBundlePath, w.state.LastBundleErr = path, ""
	if err != nil {
		w.state.LastBundlePath, w.state.LastBundleErr = "", err.Error()
	}
	w.mu.Unlock()
	if w.cfg.OnBundle != nil {
		w.cfg.OnBundle(path, err)
	}
}

// State returns a copy of the watchdog's current state.
func (w *Watchdog) State() State {
	w.mu.Lock()
	defer w.mu.Unlock()
	st := w.state
	st.Signals = append([]SignalState(nil), w.state.Signals...)
	return st
}

// recentStateEvents caps how many trailing records WriteFlightState embeds.
const recentStateEvents = 256

// WriteFlightState renders the watchdog state plus the most recent flight
// records (batches and control events) as one JSON document — the /debug/flight endpoint body. It also
// satisfies telemetry.FlightDebug.
func (w *Watchdog) WriteFlightState(out io.Writer) error {
	st := w.State()
	body := struct {
		State  State             `json:"state"`
		Events []json.RawMessage `json:"events"`
	}{State: st, Events: []json.RawMessage{}}
	if w.cfg.Recorder != nil {
		for _, l := range w.cfg.Recorder.lines(recentStateEvents, nil) {
			body.Events = append(body.Events, json.RawMessage(l))
		}
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(&body)
}
