package cache

import (
	"math"
	"sync"
	"testing"
	"time"

	"ugache/internal/flight"
	"ugache/internal/platform"
	"ugache/internal/rng"
	"ugache/internal/solver"
	"ugache/internal/telemetry"
	"ugache/internal/timeline"
	"ugache/internal/workload"
)

// TestRefreshUpdateSecondsPartialBatch pins the update-phase accounting
// when the moved-entry count is not a multiple of BatchEntries: the final
// step must be charged for its actual remainder, not a full BatchEntries
// transfer (the old code inflated UpdateSeconds, Duration and the Fig. 17
// timeline).
func TestRefreshUpdateSecondsPartialBatch(t *testing.T) {
	p := platform.ServerC()
	pl, in := testPlacement(t, p, 4000, 0.1)
	sys, err := Fill(p, pl, FillOptions{CapacityEntries: in.Capacity})
	if err != nil {
		t.Fatal(err)
	}

	// Reversed hotness produces a large, odd-sized diff.
	h2 := make(workload.Hotness, 4000)
	for i := range h2 {
		h2[i] = in.Hotness[4000-1-i]
	}
	in2 := *in
	in2.Hotness = h2
	pl2, err := (solver.UGache{}).Solve(&in2)
	if err != nil {
		t.Fatal(err)
	}

	cfg := DefaultRefreshConfig()
	cfg.BatchEntries = 301
	cfg.PauseSeconds = 0.1
	cfg.UpdateBandwidth = 1e6
	base := 0.002
	rep, err := sys.Refresh(pl2, base, cfg)
	if err != nil {
		t.Fatal(err)
	}
	moved := rep.EvictedEntries + rep.InsertedEntries
	if moved == 0 {
		t.Fatal("no diff to time")
	}
	if moved%cfg.BatchEntries == 0 {
		t.Fatalf("diff of %d entries is a multiple of %d; test needs a remainder", moved, cfg.BatchEntries)
	}
	full := moved / cfg.BatchEntries
	rem := moved % cfg.BatchEntries
	perStep := float64(cfg.BatchEntries*int64(sys.EntryBytes)) / cfg.UpdateBandwidth
	remStep := float64(rem*int64(sys.EntryBytes)) / cfg.UpdateBandwidth
	want := float64(full)*(perStep+cfg.PauseSeconds) + remStep + cfg.PauseSeconds
	if math.Abs(rep.UpdateSeconds-want) > 1e-9 {
		t.Fatalf("UpdateSeconds %g, want %g (%d moved, %d full steps, %d remainder)",
			rep.UpdateSeconds, want, moved, full, rem)
	}
	// The old accounting charged ceil(moved/BatchEntries) full steps.
	oldWant := float64(full+1) * (perStep + cfg.PauseSeconds)
	if rep.UpdateSeconds >= oldWant {
		t.Fatalf("UpdateSeconds %g not below the old full-step accounting %g", rep.UpdateSeconds, oldWant)
	}
	if math.Abs(rep.Duration-(cfg.SolveSeconds+rep.UpdateSeconds)) > 1e-9 {
		t.Fatalf("Duration %g inconsistent with UpdateSeconds %g", rep.Duration, rep.UpdateSeconds)
	}
	// The timeline's busy windows must respect the shorter final step: no
	// sample inside the final pause may show update impact.
	tailBusyEnd := cfg.SolveSeconds + float64(full)*(perStep+cfg.PauseSeconds) + remStep
	for _, st := range rep.Timeline {
		if st.T >= tailBusyEnd && st.T < rep.Duration && st.IterTime != base {
			t.Fatalf("timeline busy at %g inside the final pause (iter %g)", st.T, st.IterTime)
		}
	}
}

// TestHotnessSamplerShardsConcurrent drives one sampler from many
// goroutines (shard-per-caller) with merges racing the observations; run
// with -race. The merged hotness must equal the single-shard result.
func TestHotnessSamplerShardsConcurrent(t *testing.T) {
	const workers = 4
	const batches = 50
	s := NewHotnessSampler(100, 1)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sh := s.Shard(w)
			for b := 0; b < batches; b++ {
				sh.Observe([]int64{int64(w), int64(b % 10), int64(b % 10), 999999, -3})
				if b%10 == 0 {
					if _, err := s.Hotness(); err != nil {
						t.Error(err)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if got := s.Batches(); got != workers*batches {
		t.Fatalf("sampled %d batches, want %d", got, workers*batches)
	}
	h, err := s.Hotness()
	if err != nil {
		t.Fatal(err)
	}
	total := float64(workers * batches)
	// Key 7 appears only as b%10==7: 5 batches per worker.
	if got := h[7] * total; math.Abs(got-float64(workers*5)) > 1e-9 {
		t.Fatalf("key 7 count %g, want %d", got, workers*5)
	}
	// Key 0: all 50 of worker 0's batches (own key, deduped against the
	// b%10==0 hits) plus 5 b%10==0 batches from each other worker.
	if got := h[0] * total; math.Abs(got-float64(batches+(workers-1)*5)) > 1e-9 {
		t.Fatalf("key 0 count %g, want %d", got, batches+(workers-1)*5)
	}
	// Out-of-range keys (999999, -3) must be ignored.
	if h[99] != 0 {
		t.Fatalf("key 99 hotness %g, want 0", h[99])
	}
	if _, err := NewHotnessSampler(10, 1).Hotness(); err == nil {
		t.Fatal("empty sampler accepted")
	}
}

// TestRefreshTelemetryGauges checks SetTelemetry publishes the report.
func TestRefreshTelemetryGauges(t *testing.T) {
	p := platform.ServerC()
	pl, in := testPlacement(t, p, 2000, 0.1)
	sys, err := Fill(p, pl, FillOptions{CapacityEntries: in.Capacity})
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry(2)
	sys.SetTelemetry(reg)

	h2 := make(workload.Hotness, 2000)
	for i := range h2 {
		h2[i] = in.Hotness[2000-1-i]
	}
	in2 := *in
	in2.Hotness = h2
	pl2, err := (solver.UGache{}).Solve(&in2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultRefreshConfig()
	cfg.BatchEntries = 100
	rep, err := sys.Refresh(pl2, 0.001, cfg)
	if err != nil {
		t.Fatal(err)
	}
	vals := map[string]float64{}
	for _, s := range reg.Samples() {
		vals[s.Name] = s.Value
	}
	if vals["cache_refresh_total"] != 1 {
		t.Fatalf("refresh counter %g", vals["cache_refresh_total"])
	}
	if vals["cache_refresh_active"] != 0 {
		t.Fatal("refresh still marked active")
	}
	if vals["cache_refresh_last_duration_seconds"] != rep.Duration ||
		vals["cache_refresh_last_update_seconds"] != rep.UpdateSeconds ||
		vals["cache_refresh_last_evicted_entries"] != float64(rep.EvictedEntries) {
		t.Fatalf("gauges %v do not match report %+v", vals, rep)
	}
}

// TestRefreshSolveStats: a SolveStats attached to the config flows into the
// report, the solve-wall gauges, and the refresh-solve span args drawn from
// the refresh's flight record — the channel the core engine uses to surface
// real (measured) solve cost next to the simulated Fig. 17 replay.
func TestRefreshSolveStats(t *testing.T) {
	p := platform.ServerC()
	pl, in := testPlacement(t, p, 2000, 0.1)
	sys, err := Fill(p, pl, FillOptions{CapacityEntries: in.Capacity})
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry(2)
	sys.SetTelemetry(reg)

	h2 := make(workload.Hotness, 2000)
	for i := range h2 {
		h2[i] = in.Hotness[2000-1-i]
	}
	in2 := *in
	in2.Hotness = h2
	pl2, err := (solver.UGache{}).Solve(&in2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultRefreshConfig()
	cfg.BatchEntries = 200
	cfg.Solve = &SolveStats{WallSeconds: 0.042}
	rep, err := sys.Refresh(pl2, 0.001, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Solve != cfg.Solve {
		t.Fatalf("report Solve %+v, want the config's stats", rep.Solve)
	}
	vals := map[string]float64{}
	for _, s := range reg.Samples() {
		vals[s.Name] = s.Value
	}
	if vals["cache_refresh_last_solve_wall_seconds"] != 0.042 {
		t.Fatalf("solve wall gauge %g", vals["cache_refresh_last_solve_wall_seconds"])
	}
	var solve *timeline.Event
	for _, ev := range drawn(rep, pl2) {
		if ev.Name == "refresh-solve" {
			ev := ev
			solve = &ev
		}
	}
	if solve == nil {
		t.Fatal("missing refresh-solve span")
	}
	args := map[string]float64{}
	for i := int32(0); i < solve.NArgs; i++ {
		args[solve.Args[i].Key] = solve.Args[i].Val
	}
	if args["solve_wall_seconds"] != 0.042 || solve.NArgs != 1 {
		t.Fatalf("refresh-solve span args %v", args)
	}

	// Without stats the span carries no solve args and the gauge is zeroed:
	// it describes the *last* refresh, and a stat-less refresh must not leave
	// the previous solve's wall time published against the wrong placement.
	cfg.Solve = nil
	rep, err = sys.Refresh(pl, 0.001, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var last *timeline.Event
	for _, ev := range drawn(rep, pl) {
		if ev.Name == "refresh-solve" {
			ev := ev
			last = &ev
		}
	}
	if last.NArgs != 0 {
		t.Fatalf("stat-less refresh-solve span has %d args", last.NArgs)
	}
	vals = map[string]float64{}
	for _, s := range reg.Samples() {
		vals[s.Name] = s.Value
	}
	if vals["cache_refresh_last_solve_wall_seconds"] != 0 {
		t.Fatalf("stale solve wall gauge %g after stat-less refresh",
			vals["cache_refresh_last_solve_wall_seconds"])
	}
	if vals["cache_refresh_total"] != 2 {
		t.Fatalf("refresh counter %g after two refreshes", vals["cache_refresh_total"])
	}
}

// TestHotnessSamplerEvery pins the per-shard sampling cadence (the old
// single-threaded behaviour, now via shard 0).
func TestHotnessSamplerEvery(t *testing.T) {
	s := NewHotnessSampler(10, 2)
	s.Observe([]int64{1, 1, 2}) // recorded
	s.Observe([]int64{3})       // skipped
	s.Observe([]int64{1})       // recorded
	if s.Batches() != 2 {
		t.Fatalf("sampled %d", s.Batches())
	}
	h, err := s.Hotness()
	if err != nil {
		t.Fatal(err)
	}
	// Key 3's batch was skipped: it reads like key 0, which no batch held (the
	// never-seen estimate, 0 until the sampler shared ProfileBatches'
	// estimator), not like a key seen once in two batches.
	if h[1] != 1 || h[2] != 0.5 || h[3] != h[0] || h[3] >= h[2] {
		t.Fatalf("hotness %v", h[:4])
	}
}

// TestHotnessSamplerSharesProfileEstimator pins the two doors to the solver to
// one estimator: a sampler fed the batches ProfileBatches is given returns the
// same vector bit for bit, whether one shard saw them or three did, on an
// input large enough for adjusted counts and many buckets. And re-merging
// into a caller's buffer allocates nothing once the sampler has its
// summed-count buffer.
func TestHotnessSamplerSharesProfileEstimator(t *testing.T) {
	const n, batches = 20_000, 48
	z, err := workload.NewZipf(n, 1.1)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(23)
	rec := make([][]int64, batches)
	for i := range rec {
		for j := 0; j < 700; j++ {
			rec[i] = append(rec[i], z.Sample(r))
		}
	}
	want, err := workload.ProfileBatches(n, rec)
	if err != nil {
		t.Fatal(err)
	}
	levels := map[float64]bool{}
	for _, v := range want {
		levels[v] = true
	}
	if len(levels) < 2*batches {
		t.Fatalf("%d distinct estimates: the input does not reach the local levels", len(levels))
	}
	for _, shards := range []int{1, 3} {
		s := NewHotnessSampler(n, 1)
		for i, b := range rec {
			s.Shard(i % shards).Observe(b)
		}
		got := make(workload.Hotness, n)
		if _, err := s.HotnessInto(got); err != nil {
			t.Fatal(err)
		}
		for k := range want {
			if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
				t.Fatalf("%d shards: hotness[%d] = %v, ProfileBatches says %v", shards, k, got[k], want[k])
			}
		}
		if allocs := testing.AllocsPerRun(5, func() {
			if _, err := s.HotnessInto(got); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Fatalf("%d shards: HotnessInto allocates %v times per merge", shards, allocs)
		}
	}
}

// drawn returns the spans a trace draws from rep's flight record: the one
// store of a refresh's Fig. 17 layout (flight.Draw).
func drawn(rep *RefreshReport, pl *solver.Placement) []timeline.Event {
	fl := flight.NewRecorder(1, 8)
	e := rep.Record(pl, time.Now())
	fl.RecordControl(&e)
	_, events := flight.Draw(fl)
	return events
}

// TestRefreshTimelineSpans checks a refresh's record draws the Fig.-17 span
// layout: one parent refresh span, one solve child starting with it, and
// per-update-step spans whose busy time tiles the update phase with pause
// gaps.
func TestRefreshTimelineSpans(t *testing.T) {
	p := platform.ServerC()
	pl, in := testPlacement(t, p, 2000, 0.1)
	sys, err := Fill(p, pl, FillOptions{CapacityEntries: in.Capacity})
	if err != nil {
		t.Fatal(err)
	}

	h2 := make(workload.Hotness, 2000)
	for i := range h2 {
		h2[i] = in.Hotness[2000-1-i]
	}
	in2 := *in
	in2.Hotness = h2
	pl2, err := (solver.UGache{}).Solve(&in2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultRefreshConfig()
	cfg.BatchEntries = 200
	cfg.UpdateBandwidth = 1e6
	rep, err := sys.Refresh(pl2, 0.001, cfg)
	if err != nil {
		t.Fatal(err)
	}

	var root, solve *timeline.Event
	var steps []timeline.Event
	for _, ev := range drawn(rep, pl2) {
		if ev.PID != timeline.ProcControl || ev.TID != timeline.TIDRefresh {
			t.Fatalf("refresh span on wrong track: pid %d tid %d", ev.PID, ev.TID)
		}
		ev := ev
		switch ev.Name {
		case "refresh":
			root = &ev
		case "refresh-solve":
			solve = &ev
		case "refresh-update-step":
			steps = append(steps, ev)
		}
	}
	if root == nil || solve == nil {
		t.Fatal("missing refresh or refresh-solve span")
	}
	if math.Abs(root.Dur-rep.Duration) > 1e-9 || math.Abs(solve.Dur-rep.SolveSeconds) > 1e-9 {
		t.Fatalf("durations: refresh %g (want %g), solve %g (want %g)",
			root.Dur, rep.Duration, solve.Dur, rep.SolveSeconds)
	}
	if solve.Start != root.Start {
		t.Fatalf("solve starts at %g, refresh at %g", solve.Start, root.Start)
	}
	moved := rep.EvictedEntries + rep.InsertedEntries
	wantSteps := int(moved / cfg.BatchEntries)
	if moved%cfg.BatchEntries != 0 {
		wantSteps++
	}
	if wantSteps > flight.MaxRefreshStepSpans {
		wantSteps = flight.MaxRefreshStepSpans
	}
	if len(steps) != wantSteps {
		t.Fatalf("%d update-step spans, want %d (moved %d)", len(steps), wantSteps, moved)
	}
	for i, st := range steps {
		if st.Start < root.Start+rep.SolveSeconds-1e-9 {
			t.Fatalf("step %d starts at %g inside the solve phase", i, st.Start)
		}
		if st.Start+st.Dur > root.Start+root.Dur+1e-9 {
			t.Fatalf("step %d ends at %g past refresh end %g", i, st.Start+st.Dur, root.Start+root.Dur)
		}
		if i > 0 && st.Start < steps[i-1].Start+steps[i-1].Dur {
			t.Fatalf("step %d overlaps step %d", i, i-1)
		}
	}
}

// reversedPlacement solves the input with its hotness reversed — the large,
// mostly-disjoint second placement the refresh tests diff against.
func reversedPlacement(t *testing.T, in *solver.Input) *solver.Placement {
	t.Helper()
	n := len(in.Hotness)
	h2 := make(workload.Hotness, n)
	for i := range h2 {
		h2[i] = in.Hotness[n-1-i]
	}
	in2 := *in
	in2.Hotness = h2
	pl2, err := (solver.UGache{}).Solve(&in2)
	if err != nil {
		t.Fatal(err)
	}
	return pl2
}

// TestRefreshTimelineIntegerIndexing pins the impact-timeline sampling to
// exact integer indexing: sample j sits at exactly (j-5)*SamplePeriod. The
// old accumulator (t += SamplePeriod) drifted by an ulp per step, and over a
// long refresh the error moved samples across the busy/pause boundaries they
// are classified against.
func TestRefreshTimelineIntegerIndexing(t *testing.T) {
	p := platform.ServerC()
	pl, in := testPlacement(t, p, 2000, 0.1)
	sys, err := Fill(p, pl, FillOptions{CapacityEntries: in.Capacity})
	if err != nil {
		t.Fatal(err)
	}
	pl2 := reversedPlacement(t, in)

	cfg := DefaultRefreshConfig()
	cfg.BatchEntries = 100
	cfg.UpdateBandwidth = 1e6
	// A period with no exact binary representation, so any accumulation
	// error would be visible immediately.
	cfg.SamplePeriod = 0.1
	rep, err := sys.Refresh(pl2, 0.001, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Timeline) == 0 {
		t.Fatal("empty timeline")
	}
	for j, st := range rep.Timeline {
		if want := float64(j-5) * cfg.SamplePeriod; st.T != want {
			t.Fatalf("sample %d at T %v, want exactly %v", j, st.T, want)
		}
	}
	if first := rep.Timeline[0].T; first != -5*cfg.SamplePeriod {
		t.Fatalf("first sample at %g", first)
	}
	last := rep.Timeline[len(rep.Timeline)-1].T
	if last >= rep.Duration+5*cfg.SamplePeriod || last < rep.Duration {
		t.Fatalf("last sample at %g for duration %g", last, rep.Duration)
	}
}

// TestRefreshTimelineRemainderStep: with a non-multiple diff the final
// update-step span's busy time must be the remainder transfer, not a full
// BatchEntries step.
func TestRefreshTimelineRemainderStep(t *testing.T) {
	p := platform.ServerC()
	pl, in := testPlacement(t, p, 2000, 0.1)
	sys, err := Fill(p, pl, FillOptions{CapacityEntries: in.Capacity})
	if err != nil {
		t.Fatal(err)
	}
	pl2 := reversedPlacement(t, in)

	cfg := DefaultRefreshConfig()
	cfg.BatchEntries = 301
	cfg.UpdateBandwidth = 1e6
	rep, err := sys.Refresh(pl2, 0.001, cfg)
	if err != nil {
		t.Fatal(err)
	}
	moved := rep.EvictedEntries + rep.InsertedEntries
	rem := moved % cfg.BatchEntries
	if rem == 0 {
		t.Fatalf("diff of %d entries is a multiple of %d; test needs a remainder", moved, cfg.BatchEntries)
	}
	var steps []timeline.Event
	for _, ev := range drawn(rep, pl2) {
		if ev.Name == "refresh-update-step" {
			steps = append(steps, ev)
		}
	}
	wantSteps := int(moved/cfg.BatchEntries) + 1
	if wantSteps > flight.MaxRefreshStepSpans {
		t.Fatalf("%d steps would truncate; shrink the diff or raise BatchEntries", wantSteps)
	}
	if len(steps) != wantSteps {
		t.Fatalf("%d update-step spans, want %d", len(steps), wantSteps)
	}
	perStep := float64(cfg.BatchEntries*int64(sys.EntryBytes)) / cfg.UpdateBandwidth
	remStep := float64(rem*int64(sys.EntryBytes)) / cfg.UpdateBandwidth
	for i, st := range steps[:len(steps)-1] {
		if math.Abs(st.Dur-perStep) > 1e-12 {
			t.Fatalf("full step %d busy %g, want %g", i, st.Dur, perStep)
		}
	}
	if tail := steps[len(steps)-1]; math.Abs(tail.Dur-remStep) > 1e-12 {
		t.Fatalf("remainder step busy %g, want %g (rem %d entries)", tail.Dur, remStep, rem)
	}
}

// TestRefreshTimelineTruncation: a diff spanning more than
// flight.MaxRefreshStepSpans update steps draws exactly the cap in step spans plus
// one refresh-update-steps-truncated instant carrying the omitted count; the
// root span's update_steps arg still reports the true total.
func TestRefreshTimelineTruncation(t *testing.T) {
	p := platform.ServerC()
	pl, in := testPlacement(t, p, 2000, 0.1)
	sys, err := Fill(p, pl, FillOptions{CapacityEntries: in.Capacity})
	if err != nil {
		t.Fatal(err)
	}
	pl2 := reversedPlacement(t, in)

	cfg := DefaultRefreshConfig()
	cfg.BatchEntries = 7 // tiny steps force the span cap
	cfg.UpdateBandwidth = 1e9
	rep, err := sys.Refresh(pl2, 0.001, cfg)
	if err != nil {
		t.Fatal(err)
	}
	moved := rep.EvictedEntries + rep.InsertedEntries
	totalSteps := moved / cfg.BatchEntries
	if moved%cfg.BatchEntries != 0 {
		totalSteps++
	}
	if totalSteps <= flight.MaxRefreshStepSpans {
		t.Fatalf("only %d steps; test needs more than %d", totalSteps, flight.MaxRefreshStepSpans)
	}
	var root, trunc *timeline.Event
	stepSpans := 0
	for _, ev := range drawn(rep, pl2) {
		ev := ev
		switch ev.Name {
		case "refresh":
			root = &ev
		case "refresh-update-step":
			stepSpans++
		case "refresh-update-steps-truncated":
			trunc = &ev
		}
	}
	if stepSpans != flight.MaxRefreshStepSpans {
		t.Fatalf("%d update-step spans, want the %d cap", stepSpans, flight.MaxRefreshStepSpans)
	}
	if trunc == nil {
		t.Fatal("missing refresh-update-steps-truncated instant")
	}
	args := map[string]float64{}
	for i := int32(0); i < trunc.NArgs; i++ {
		args[trunc.Args[i].Key] = trunc.Args[i].Val
	}
	if want := float64(totalSteps - flight.MaxRefreshStepSpans); args["omitted_steps"] != want {
		t.Fatalf("omitted_steps %g, want %g", args["omitted_steps"], want)
	}
	if root == nil {
		t.Fatal("missing refresh span")
	}
	rootArgs := map[string]float64{}
	for i := int32(0); i < root.NArgs; i++ {
		rootArgs[root.Args[i].Key] = root.Args[i].Val
	}
	if rootArgs["update_steps"] != float64(totalSteps) {
		t.Fatalf("root update_steps %g, want %d", rootArgs["update_steps"], totalSteps)
	}
}

// TestPlacementDeltaIncremental pins the entry-wise diff that replaced the
// duplicated per-GPU key-set computation: the delta lists exactly the
// entries whose storage changed, in ascending key order, and applying it
// moves strictly less than the rebuild volume when the placements overlap.
func TestPlacementDeltaIncremental(t *testing.T) {
	p := platform.ServerC()
	pl, in := testPlacement(t, p, 2000, 0.1)
	// Mildly perturbed hotness: most of the hot head survives, so an
	// incremental apply must beat the full rebuild by a wide margin.
	h2 := make(workload.Hotness, 2000)
	copy(h2, in.Hotness)
	for i := 0; i < len(h2); i += 7 {
		h2[i] *= 1.5
	}
	in2 := *in
	in2.Hotness = h2
	pl2, err := (solver.UGache{}).Solve(&in2)
	if err != nil {
		t.Fatal(err)
	}

	delta := placementDelta(pl, pl2, p.N)
	var moved int64
	for g := range delta {
		for i, k := range delta[g].evict {
			if !pl.StoredOn(g, k) || pl2.StoredOn(g, k) {
				t.Fatalf("gpu %d evict key %d not a stored->dropped transition", g, k)
			}
			if i > 0 && k <= delta[g].evict[i-1] {
				t.Fatalf("gpu %d evict list not ascending at %d", g, i)
			}
		}
		for i, k := range delta[g].insert {
			if pl.StoredOn(g, k) || !pl2.StoredOn(g, k) {
				t.Fatalf("gpu %d insert key %d not an absent->stored transition", g, k)
			}
			if i > 0 && k <= delta[g].insert[i-1] {
				t.Fatalf("gpu %d insert list not ascending at %d", g, i)
			}
		}
		moved += int64(len(delta[g].evict) + len(delta[g].insert))
	}
	// Completeness: every storage change is in the delta (the loop above
	// already proved every delta entry is a real change).
	var want int64
	for g := 0; g < p.N; g++ {
		for e := int64(0); e < 2000; e++ {
			if pl.StoredOn(g, e) != pl2.StoredOn(g, e) {
				want++
			}
		}
	}
	if moved != want {
		t.Fatalf("delta moves %d entries, %d storage cells changed", moved, want)
	}
	rebuild := storedEntries(pl) + storedEntries(pl2)
	if moved == 0 || moved >= rebuild {
		t.Fatalf("delta %d not strictly below rebuild %d", moved, rebuild)
	}

	// Refresh reports the same accounting.
	sys, err := Fill(p, pl, FillOptions{CapacityEntries: in.Capacity})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sys.Refresh(pl2, 0.001, DefaultRefreshConfig())
	if err != nil {
		t.Fatal(err)
	}
	if rep.EvictedEntries+rep.InsertedEntries != moved {
		t.Fatalf("report moves %d, delta %d", rep.EvictedEntries+rep.InsertedEntries, moved)
	}
	if rep.RebuildEntries != rebuild {
		t.Fatalf("report rebuild %d, want %d", rep.RebuildEntries, rebuild)
	}
}
