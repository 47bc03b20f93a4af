package core

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"ugache/internal/cache"
	"ugache/internal/flight"
	"ugache/internal/platform"
	"ugache/internal/rng"
	"ugache/internal/telemetry"
	"ugache/internal/workload"
)

// driftTestSystem builds a small timing-only system solved against ref —
// the controller tests' stand-in for a serving deployment.
func driftTestSystem(t *testing.T, ref workload.Hotness) *System {
	t.Helper()
	sys, err := Build(Config{
		Platform:           platform.ServerA(),
		Hotness:            ref,
		EntryBytes:         64,
		CacheEntriesPerGPU: int64(len(ref) / 8),
	})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// driveController replays wl's batches [from, to) through the sampler and
// the controller (the serving engine's per-batch hook), returning the batch
// index of the first refresh the controller performed, or -1.
func driveController(t *testing.T, ctrl *Controller, s *cache.HotnessSampler, wl *workload.ShiftingZipf, r *rng.Rand, from, to, size int) int {
	t.Helper()
	scratch := make(map[int64]struct{})
	first := -1
	for b := from; b < to; b++ {
		s.Observe(workload.Unique(wl.GenBatchAt(r, b, size), scratch))
		if ctrl.BatchObserved() && first < 0 {
			first = b
		}
	}
	return first
}

// TestControllerDriftBoundedTrigger is the tentpole's acceptance test: in
// drift mode the controller performs zero re-solves while the stream is
// stationary, triggers within a bounded window after a flash-crowd shift,
// and the triggered refresh moves strictly fewer entries than a rebuild.
func TestControllerDriftBoundedTrigger(t *testing.T) {
	const (
		n     = 4096
		kpb   = 512
		shift = 96
	)
	wl, err := workload.NewFlashCrowd(n, 0.9, shift, 0)
	if err != nil {
		t.Fatal(err)
	}
	sys := driftTestSystem(t, wl.ExpectedHotness(0, kpb))
	sampler := cache.NewHotnessSampler(n, 1)
	ctrl, err := NewController(sys, ControllerConfig{
		Mode:       RefreshDrift,
		Sampler:    sampler,
		CheckEvery: 8,
		Drift:      cache.DriftConfig{MinBatches: 16, MaxBatches: 32},
	})
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(7)

	// Stationary phase: the detector must stay quiet through every check.
	if got := driveController(t, ctrl, sampler, wl, r, 0, shift, kpb); got >= 0 {
		t.Fatalf("stationary phase refreshed at batch %d", got)
	}
	st := ctrl.Stats()
	if st.Refreshes != 0 {
		t.Fatalf("%d stationary refreshes", st.Refreshes)
	}
	if st.Checks == 0 {
		t.Fatal("no drift checks ran")
	}

	// Post-shift: the trigger must land within the detection budget — one
	// full observation window plus the check cadence.
	maxDelay := ctrl.Detector().Config().MaxBatches + 8
	trigger := driveController(t, ctrl, sampler, wl, r, shift, shift+144, kpb)
	st = ctrl.Stats()
	if st.Refreshes == 0 {
		t.Fatal("flash crowd never triggered a refresh")
	}
	if trigger < shift || trigger > shift+maxDelay {
		t.Fatalf("trigger at batch %d outside (%d, %d]", trigger, shift, shift+maxDelay)
	}
	// The maturity backoff must keep the loop from chasing its own sampling
	// noise after the reaction.
	if st.Refreshes > 2 {
		t.Fatalf("%d refreshes for one shift", st.Refreshes)
	}
	last := st.LastRefresh
	if moved := last.EvictedEntries + last.InsertedEntries; moved <= 0 || moved >= last.RebuildEntries {
		t.Fatalf("incremental delta %d not strictly below rebuild %d", moved, last.RebuildEntries)
	}
	if last.Duration <= 0 {
		t.Fatalf("refresh duration %g", last.Duration)
	}
}

// TestControllerPeriodic pins the blind cadence: a refresh every
// PeriodBatches, aligned to the CheckEvery boundary, regardless of drift.
func TestControllerPeriodic(t *testing.T) {
	const n, kpb = 2048, 256
	wl, err := workload.NewFlashCrowd(n, 1.05, 1<<30, 0) // stationary: the crowd never comes
	if err != nil {
		t.Fatal(err)
	}
	sys := driftTestSystem(t, wl.ExpectedHotness(0, kpb))
	sampler := cache.NewHotnessSampler(n, 1)
	ctrl, err := NewController(sys, ControllerConfig{
		Mode:          RefreshPeriodic,
		Sampler:       sampler,
		CheckEvery:    8,
		PeriodBatches: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(5)
	scratch := make(map[int64]struct{})
	var fired []int
	for b := 0; b < 200; b++ {
		sampler.Observe(workload.Unique(wl.GenBatchAt(r, b, kpb), scratch))
		if ctrl.BatchObserved() {
			fired = append(fired, b)
		}
	}
	// BatchObserved counts from 1, so period boundaries land on batch
	// indices 63, 127, 191.
	want := []int{63, 127, 191}
	if len(fired) != len(want) {
		t.Fatalf("refreshes at %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("refreshes at %v, want %v", fired, want)
		}
	}
	st := ctrl.Stats()
	if st.Refreshes != 3 || st.Errors != 0 {
		t.Fatalf("stats %+v", st)
	}
	// Periodic mode has no detector.
	if ctrl.Detector() != nil {
		t.Fatal("periodic controller grew a detector")
	}
	if st.LastDrift.Score != 0 || st.LastDrift.Batches != 0 {
		t.Fatalf("periodic LastDrift %+v", st.LastDrift)
	}
	if st.Checks != 3 || st.LastRefresh == nil {
		t.Fatalf("periodic stats %+v: want three checks, each a refresh", st)
	}
}

// TestControllerAsyncSingleFlight smoke-tests the background path: checks
// run off the serving thread, Wait drains them, and a stationary stream
// never refreshes.
func TestControllerAsyncSingleFlight(t *testing.T) {
	const n, kpb = 1024, 128
	wl, err := workload.NewFlashCrowd(n, 1.0, 1<<30, 0) // stationary: the crowd never comes
	if err != nil {
		t.Fatal(err)
	}
	sys := driftTestSystem(t, wl.ExpectedHotness(0, kpb))
	sampler := cache.NewHotnessSampler(n, 1)
	ctrl, err := NewController(sys, ControllerConfig{
		Mode:       RefreshDrift,
		Sampler:    sampler,
		CheckEvery: 4,
		Drift:      cache.DriftConfig{MinBatches: 8},
		Async:      true,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(2)
	scratch := make(map[int64]struct{})
	for b := 0; b < 64; b++ {
		sampler.Observe(workload.Unique(wl.GenBatchAt(r, b, kpb), scratch))
		if ctrl.BatchObserved() {
			t.Fatal("async BatchObserved reported an inline refresh")
		}
	}
	ctrl.Wait()
	st := ctrl.Stats()
	if st.Checks == 0 {
		t.Fatal("no async checks ran")
	}
	if st.Refreshes != 0 {
		t.Fatalf("stationary async stream refreshed %d times", st.Refreshes)
	}
	if st.Errors != 0 {
		t.Fatalf("%d controller errors", st.Errors)
	}
}

// TestControllerValidationAndModes covers construction errors, the off-mode
// no-op, and the flag parsing round trip.
func TestControllerValidationAndModes(t *testing.T) {
	if _, err := NewController(nil, ControllerConfig{}); err == nil {
		t.Fatal("nil system accepted")
	}
	ref := testHotness(256, 1.1, 1)
	sys := driftTestSystem(t, ref)
	for _, mode := range []RefreshMode{RefreshPeriodic, RefreshDrift} {
		if _, err := NewController(sys, ControllerConfig{Mode: mode}); err == nil {
			t.Fatalf("%s mode without a sampler accepted", mode)
		}
	}
	// Drift mode requires the sampler to match the placement's entry space.
	if _, err := NewController(sys, ControllerConfig{
		Mode:    RefreshDrift,
		Sampler: cache.NewHotnessSampler(99, 1),
	}); err == nil {
		t.Fatal("mismatched sampler accepted")
	}

	off, err := NewController(sys, ControllerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if off.BatchObserved() {
			t.Fatal("off-mode controller refreshed")
		}
	}
	if refreshed, err := off.tick(); refreshed || err != nil {
		t.Fatalf("off-mode tick: %v %v", refreshed, err)
	}
	st := off.Stats()
	if st.Batches != 0 || st.Checks != 0 || st.Refreshes != 0 {
		t.Fatalf("off-mode stats %+v", st)
	}

	for _, tc := range []struct {
		in   string
		want RefreshMode
	}{
		{"off", RefreshOff}, {"", RefreshOff},
		{"periodic", RefreshPeriodic}, {"DRIFT", RefreshDrift},
	} {
		got, err := ParseRefreshMode(tc.in)
		if err != nil || got != tc.want {
			t.Fatalf("ParseRefreshMode(%q) = %v, %v", tc.in, got, err)
		}
	}
	if _, err := ParseRefreshMode("bogus"); err == nil {
		t.Fatal("bogus mode accepted")
	}
	for _, m := range []RefreshMode{RefreshOff, RefreshPeriodic, RefreshDrift} {
		back, err := ParseRefreshMode(m.String())
		if err != nil || back != m {
			t.Fatalf("mode %d round-trips to %v, %v", m, back, err)
		}
	}
}

// TestControllerRefusesUnknownMode: a mode outside off, periodic and drift
// is refused at construction, sampler or not, where it once built a
// controller whose first check panicked on its missing detector; and it
// prints by its number, which no flag parses.
func TestControllerRefusesUnknownMode(t *testing.T) {
	sys := driftTestSystem(t, testHotness(256, 1.1, 1))
	for _, mode := range []RefreshMode{RefreshDrift + 1, 7, -1} {
		if _, err := NewController(sys, ControllerConfig{Mode: mode, Sampler: cache.NewHotnessSampler(256, 1)}); err == nil {
			t.Errorf("mode %d accepted", int(mode))
		}
	}
	if got := RefreshMode(7).String(); got != "refresh-mode(7)" {
		t.Errorf("RefreshMode(7).String() = %q, want refresh-mode(7)", got)
	}
	if _, err := ParseRefreshMode(RefreshMode(7).String()); err == nil {
		t.Error("an unknown mode's name parses")
	}
}

// TestEmptyWindowIsNoCheck: a controller whose sampler saw nothing neither
// checks nor errs when its cadence comes round, in either mode: it waits for
// traffic.
func TestEmptyWindowIsNoCheck(t *testing.T) {
	const n = 256
	for _, mode := range []RefreshMode{RefreshPeriodic, RefreshDrift} {
		sys := driftTestSystem(t, testHotness(n, 1.1, 1))
		ctrl, err := NewController(sys, ControllerConfig{
			Mode: mode, Sampler: cache.NewHotnessSampler(n, 1), CheckEvery: 4, PeriodBatches: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			if ctrl.BatchObserved() {
				t.Fatalf("%s: refreshed on an empty window", mode)
			}
		}
		st := ctrl.Stats()
		if st.Batches != 4 || st.Checks != 0 || st.Errors != 0 {
			t.Fatalf("%s: stats %+v, want 4 batches, no check and no error", mode, st)
		}
		if errs := sys.reg.Value("cache_refresh_controller_errors_total"); errs != 0 {
			t.Fatalf("%s: error counter %g", mode, errs)
		}
	}
}

// TestOneWriterPerControlFact: a drift check that triggers a refresh is
// written once, and every surface reads that write: the registry's
// cache_refresh_* and cache_drift_* series, the refresh and drift lines of
// the flight JSONL, and ControllerStats' LastRefresh and LastDrift agree
// value for value.
func TestOneWriterPerControlFact(t *testing.T) {
	const n, kpb, shift = 4096, 512, 16
	wl, err := workload.NewFlashCrowd(n, 0.9, shift, 0)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry(1)
	fl := flight.NewRecorder(1, 8)
	// Solved against the post-shift hotness, the system sees the pre-shift
	// stream as drift on its first check.
	sys, err := Build(Config{
		Platform: platform.ServerA(), Hotness: wl.ExpectedHotness(shift, kpb), EntryBytes: 64,
		CacheEntriesPerGPU: n / 8, Telemetry: reg, Flight: fl,
	})
	if err != nil {
		t.Fatal(err)
	}
	sampler := cache.NewHotnessSampler(n, 1)
	ctrl, err := NewController(sys, ControllerConfig{
		Mode: RefreshDrift, Sampler: sampler, CheckEvery: shift, Drift: cache.DriftConfig{MinBatches: shift},
	})
	if err != nil {
		t.Fatal(err)
	}
	if first := driveController(t, ctrl, sampler, wl, rng.New(3), 0, shift, kpb); first != shift-1 {
		t.Fatalf("first refresh at batch %d, want %d", first, shift-1)
	}
	st := ctrl.Stats()
	r, d := st.LastRefresh, st.LastDrift
	if st.Checks != 1 || st.Refreshes != 1 || st.Errors != 0 || r == nil || !d.Drifted || d.Measured != nil {
		t.Fatalf("stats %+v, want one drifted check that refreshed", st)
	}

	series := map[string]float64{}
	for _, s := range reg.Samples() {
		series[s.Name] = s.Value
	}
	var buf bytes.Buffer
	if err := (flight.BundleConfig{Recorder: fl}).WriteFlightState(&buf); err != nil {
		t.Fatal(err)
	}
	records, kinds := map[string]map[string]float64{}, map[string]int{}
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatal(err)
		}
		kind, _ := rec["kind"].(string)
		kinds[kind]++
		records[kind] = map[string]float64{}
		for k, v := range rec {
			if f, ok := v.(float64); ok {
				records[kind][k] = f
			}
		}
	}
	if kinds["refresh"] != int(st.Refreshes) || kinds["drift"] != int(st.Checks) {
		t.Fatalf("flight holds %v, Stats say %d refreshes and %d checks", kinds, st.Refreshes, st.Checks)
	}
	drifted := 0.0
	if d.Drifted {
		drifted = 1
	}
	for _, c := range []struct {
		series    string // the registry's series, or ""
		kind, key string // the flight line's kind and key, or ""
		want      float64
	}{
		{"cache_refresh_total", "", "", float64(st.Refreshes)},
		{"cache_refresh_triggered_total", "", "", float64(st.Refreshes)},
		{"cache_refresh_active", "", "", 0},
		{"cache_refresh_last_solve_wall_seconds", "refresh", "solve_wall_s", r.Solve.WallSeconds},
		{"cache_refresh_last_duration_seconds", "refresh", "duration_s", r.Duration},
		{"cache_refresh_last_solve_seconds", "refresh", "solve_s", r.SolveSeconds},
		{"cache_refresh_last_update_seconds", "refresh", "update_s", r.UpdateSeconds},
		{"cache_refresh_last_mean_impact", "refresh", "mean_impact", r.MeanImpact},
		{"cache_refresh_last_evicted_entries", "refresh", "evicted_entries", float64(r.EvictedEntries)},
		{"cache_refresh_last_inserted_entries", "refresh", "inserted_entries", float64(r.InsertedEntries)},
		{"", "refresh", "moved_entries", float64(r.EvictedEntries + r.InsertedEntries)},
		{"cache_drift_checks_total", "", "", float64(st.Checks)},
		{"cache_drift_score", "drift", "score", d.Score},
		{"cache_drift_topk_overlap", "drift", "topk_overlap", d.TopKOverlap},
		{"cache_drift_rank_distance", "drift", "rank_distance", d.RankDistance},
		{"cache_drift_window_batches", "drift", "window_batches", float64(d.Batches)},
		{"", "drift", "drifted", drifted},
	} {
		if c.series != "" && series[c.series] != c.want {
			t.Errorf("%s = %g, Stats say %g", c.series, series[c.series], c.want)
		}
		if c.key != "" && records[c.kind][c.key] != c.want {
			t.Errorf("%s line's %s = %g, Stats say %g", c.kind, c.key, records[c.kind][c.key], c.want)
		}
	}
}
