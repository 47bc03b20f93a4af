package flight

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"ugache/internal/telemetry"
)

// testWatchdog builds a watchdog against a fresh registry with the serving
// metrics the signals read, short windows, a profile-free bundle sink, and a
// clock that only moves when the test calls advance.
func testWatchdog(t *testing.T, slo SLO, mutate func(cfg *WatchdogConfig)) (*Watchdog, *telemetry.Registry, string) {
	t.Helper()
	reg := telemetry.NewRegistry(1)
	reg.Histogram("serve_request_latency_seconds", "x", telemetry.ExpBuckets(1e-6, 2, 23))
	reg.Counter("serve_requests_total", "x")
	reg.Counter("serve_rejected_total", "x")
	reg.Counter("serve_prefetch_windows_total", "x")
	reg.Counter("serve_prefetch_dropped_windows_total", "x")
	reg.Counter("cache_refresh_total", "x")
	reg.Gauge("serve_queue_depth_last", "x")
	reg.Gauge("cache_refresh_last_solve_wall_seconds", "x")
	dir := t.TempDir()
	cfg := WatchdogConfig{
		SLO:           slo,
		ShortWindow:   2,
		LongWindow:    4,
		Cooldown:      time.Millisecond,
		Registry:      reg,
		QueueCapacity: 256,
		Bundle:        BundleConfig{Dir: dir, Registry: reg, SkipProfiles: true},
	}
	if mutate != nil {
		mutate(&cfg)
	}
	wd, err := NewWatchdog(cfg)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	wd.now = func() time.Time { return start }
	return wd, reg, dir
}

// advance moves wd's clock — frozen by testWatchdog — forward by d.
func advance(wd *Watchdog, d time.Duration) {
	at := wd.now().Add(d)
	wd.now = func() time.Time { return at }
}

func TestWatchdogP99Trips(t *testing.T) {
	wd, reg, dir := testWatchdog(t, SLO{P99: 10 * time.Millisecond}, nil)
	if !wd.Armed() {
		t.Fatal("watchdog with a P99 target reports disarmed")
	}
	h := reg.Histogram("serve_request_latency_seconds", "x", nil)
	tripped := false
	for tick := 0; tick < 5; tick++ {
		for i := 0; i < 20; i++ {
			h.Observe(0, 0.050) // 50ms, 5x the target
		}
		if wd.Tick() {
			tripped = true
			break
		}
		advance(wd, 2*time.Millisecond) // outlive the test cooldown
	}
	if !tripped {
		t.Fatal("sustained 50ms p99 against a 10ms SLO never tripped")
	}
	st := wd.State()
	if st.Trips != 1 || st.LastBundlePath == "" || st.LastBundleErr != "" {
		t.Fatalf("state after trip = %+v", st)
	}
	raw, err := os.ReadFile(filepath.Join(st.LastBundlePath, ManifestFile))
	if err != nil {
		t.Fatal(err)
	}
	var man Manifest
	if err := json.Unmarshal(raw, &man); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(man.Reason, "admitted_p99_seconds") {
		t.Fatalf("bundle reason = %q", man.Reason)
	}
	found := false
	for _, v := range man.Violations {
		if v.Name == "admitted_p99_seconds" && v.Breached && v.Short > 0.010 && v.Long > 0.010 {
			found = true
		}
	}
	if !found {
		t.Fatalf("manifest violations = %+v", man.Violations)
	}
	listed := false
	for _, f := range man.Files {
		if f == MetricsFile {
			listed = true
		}
	}
	if !listed {
		t.Fatalf("manifest files = %v, want %s listed", man.Files, MetricsFile)
	}
	_ = dir
}

func TestWatchdogCooldownSuppressesRepeatTrips(t *testing.T) {
	wd, reg, _ := testWatchdog(t, SLO{P99: 10 * time.Millisecond},
		func(cfg *WatchdogConfig) { cfg.Cooldown = time.Hour })
	h := reg.Histogram("serve_request_latency_seconds", "x", nil)
	trips := 0
	for tick := 0; tick < 8; tick++ {
		for i := 0; i < 20; i++ {
			h.Observe(0, 0.050)
		}
		if wd.Tick() {
			trips++
		}
	}
	if trips != 1 {
		t.Fatalf("trips = %d, want exactly 1 inside the cooldown", trips)
	}
	if st := wd.State(); st.Trips != 1 {
		t.Fatalf("state trips = %d", st.Trips)
	}
}

func TestWatchdogHealthyStaysQuiet(t *testing.T) {
	wd, reg, _ := testWatchdog(t, SLO{
		P99: 10 * time.Millisecond, MaxShedRatio: 0.05, MaxQueueFrac: 0.9,
		MaxSolveWall: 2 * time.Second, MaxPrefetchDropRatio: 0.5,
	}, nil)
	h := reg.Histogram("serve_request_latency_seconds", "x", nil)
	req := reg.Counter("serve_requests_total", "x")
	for tick := 0; tick < 8; tick++ {
		for i := 0; i < 50; i++ {
			h.Observe(0, 0.001) // 1ms, well under target
		}
		req.Add(0, 50)
		if wd.Tick() {
			t.Fatalf("healthy traffic tripped at tick %d: %+v", tick, wd.State().Signals)
		}
	}
	for _, sig := range wd.State().Signals {
		if sig.Breached {
			t.Fatalf("signal %s breached on healthy traffic", sig.Name)
		}
	}
}

func TestWatchdogShedRatio(t *testing.T) {
	wd, reg, _ := testWatchdog(t, SLO{MaxShedRatio: 0.05}, nil)
	req := reg.Counter("serve_requests_total", "x")
	rej := reg.Counter("serve_rejected_total", "x")
	tripped := false
	for tick := 0; tick < 5; tick++ {
		req.Add(0, 80)
		rej.Add(0, 20) // 20% shed
		if wd.Tick() {
			tripped = true
			break
		}
		advance(wd, 2*time.Millisecond)
	}
	if !tripped {
		t.Fatal("20% shed ratio against a 5% SLO never tripped")
	}
}

// TestWatchdogSolveWallNeedsRefresh pins that a sticky solve-wall gauge does
// not re-trip forever: the signal only reads when the refresh counter moved
// inside the window.
func TestWatchdogSolveWallNeedsRefresh(t *testing.T) {
	wd, reg, _ := testWatchdog(t, SLO{MaxSolveWall: time.Second}, nil)
	wall := reg.Gauge("cache_refresh_last_solve_wall_seconds", "x")
	refreshes := reg.Counter("cache_refresh_total", "x")
	wall.Set(10) // way over budget, but no refresh happened yet
	for tick := 0; tick < 6; tick++ {
		if wd.Tick() {
			t.Fatal("solve-wall tripped without any refresh in the window")
		}
	}
	refreshes.Add(0, 1)
	tripped := false
	for tick := 0; tick < 3; tick++ {
		if wd.Tick() {
			tripped = true
			break
		}
		refreshes.Add(0, 1) // keep a refresh inside the rolling window
		advance(wd, 2*time.Millisecond)
	}
	if !tripped {
		t.Fatal("10s solve wall with refreshes in-window never tripped")
	}
}

func TestWatchdogQueueSaturation(t *testing.T) {
	wd, reg, _ := testWatchdog(t, SLO{MaxQueueFrac: 0.9}, nil)
	depth := reg.Gauge("serve_queue_depth_last", "x")
	depth.Set(250) // 250/256 > 0.9
	tripped := false
	for tick := 0; tick < 5; tick++ {
		if wd.Tick() {
			tripped = true
			break
		}
		advance(wd, 2*time.Millisecond)
	}
	if !tripped {
		t.Fatal("saturated queue never tripped")
	}
}

func TestWatchdogDisarmed(t *testing.T) {
	wd, reg, dir := testWatchdog(t, SLO{}, nil)
	if wd.Armed() {
		t.Fatal("zero SLO reports armed")
	}
	h := reg.Histogram("serve_request_latency_seconds", "x", nil)
	for tick := 0; tick < 6; tick++ {
		h.Observe(0, 10) // absurd latency; nothing should care
		if wd.Tick() {
			t.Fatal("disarmed watchdog tripped")
		}
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 0 {
		t.Fatalf("disarmed watchdog wrote bundles: %v", entries)
	}
}

func TestWatchdogExemplarTracksSlowestBatch(t *testing.T) {
	rec := NewRecorder(1, 16)
	wd, _, _ := testWatchdog(t, SLO{P99: 10 * time.Millisecond},
		func(cfg *WatchdogConfig) { cfg.Recorder = rec; cfg.Bundle.Recorder = rec })
	wd.Tick() // window opens at this snapshot's timestamp
	ring := rec.Claim(1)[0]
	skipTo(ring, 7)
	b := testBatch(2, 0.080, wd.now().UnixNano())
	ring.Record(&b)
	wd.Tick()
	st := wd.State()
	if st.Exemplar == nil || st.Exemplar.Seq != 7 || st.Exemplar.GPU != 2 {
		t.Fatalf("exemplar = %+v, want batch seq 7 on gpu 2", st.Exemplar)
	}
}

func TestTriggerBundleBypassesCooldownAndArming(t *testing.T) {
	rec := NewRecorder(1, 8)
	wd, _, _ := testWatchdog(t, SLO{},
		func(cfg *WatchdogConfig) { cfg.Recorder = rec; cfg.Bundle.Recorder = rec })
	b := testBatch(0, 0.001, 1)
	rec.Claim(1)[0].Record(&b)
	path, err := wd.TriggerBundle("sigquit")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := ValidateBundle(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Manifest.Reason != "sigquit" || rep.EventLines != 1 {
		t.Fatalf("manual bundle = %+v", rep.Manifest)
	}
	if st := wd.State(); st.LastBundlePath != path || st.Trips != 0 {
		t.Fatalf("state after manual trigger = %+v", st)
	}
}

func TestWriteFlightStateJSON(t *testing.T) {
	rec := NewRecorder(1, 8)
	wd, _, _ := testWatchdog(t, SLO{P99: time.Millisecond},
		func(cfg *WatchdogConfig) { cfg.Recorder = rec })
	ring := rec.Claim(1)[0]
	skipTo(ring, 3)
	b := testBatch(1, 0.002, 5)
	ring.Record(&b)
	wd.Tick()
	var buf bytes.Buffer
	if err := wd.WriteFlightState(&buf); err != nil {
		t.Fatal(err)
	}
	var body struct {
		State  State             `json:"state"`
		Events []json.RawMessage `json:"events"`
	}
	if err := json.Unmarshal(buf.Bytes(), &body); err != nil {
		t.Fatalf("flight state does not parse: %v\n%s", err, buf.String())
	}
	if !body.State.Armed || body.State.Ticks != 1 || len(body.Events) != 3 {
		t.Fatalf("flight state = %+v with %d events", body.State, len(body.Events))
	}
	var ev map[string]any
	if err := json.Unmarshal(body.Events[2], &ev); err != nil {
		t.Fatal(err)
	}
	if ev["kind"] != "batch" || ev["seq"].(float64) != 3 {
		t.Fatalf("embedded event = %v", ev)
	}
}

// TestWatchdogConcurrent drives Start/Tick/State/TriggerBundle against live
// recording — the -race coverage for the watchdog's locking.
func TestWatchdogConcurrent(t *testing.T) {
	rec := NewRecorder(2, 32)
	wd, reg, _ := testWatchdog(t, SLO{P99: time.Millisecond}, func(cfg *WatchdogConfig) {
		cfg.Recorder = rec
		cfg.Bundle.Recorder = rec
		cfg.Interval = time.Millisecond
	})
	h := reg.Histogram("serve_request_latency_seconds", "x", nil)
	wd.Start()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ring := rec.Claim(1)[0]
			for {
				select {
				case <-stop:
					return
				default:
				}
				b := testBatch(w, 0.002, time.Now().UnixNano())
				ring.Record(&b)
				h.Observe(w, 0.002)
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = wd.State()
			var buf bytes.Buffer
			_ = wd.WriteFlightState(&buf)
		}
	}()
	// Three spinning goroutines share the processors with the 1 ms ticker:
	// wait for a tick rather than for a fixed time.
	for deadline := time.Now().Add(10 * time.Second); wd.State().Ticks == 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if _, err := wd.TriggerBundle("concurrent-test"); err != nil {
		t.Errorf("manual bundle under load: %v", err)
	}
	close(stop)
	wg.Wait()
	wd.Close()
	wd.Close() // idempotent
	if st := wd.State(); st.Ticks == 0 {
		t.Fatal("background loop never ticked")
	}
}
