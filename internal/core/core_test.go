package core

import (
	"bytes"
	"errors"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"ugache/internal/cache"
	"ugache/internal/emb"
	"ugache/internal/extract"
	"ugache/internal/flight"
	"ugache/internal/platform"
	"ugache/internal/rng"
	"ugache/internal/solver"
	"ugache/internal/telemetry"
	"ugache/internal/timeline"
	"ugache/internal/workload"
)

func testHotness(n int, alpha float64, seed uint64) workload.Hotness {
	r := rng.New(seed)
	perm := r.Perm(n)
	h := make(workload.Hotness, n)
	for rank := 0; rank < n; rank++ {
		h[perm[rank]] = math.Pow(float64(rank+1), -alpha)
	}
	return h
}

func TestBuildAndExtract(t *testing.T) {
	p := platform.ServerC()
	sys, err := Build(Config{
		Platform:   p,
		Hotness:    testHotness(8000, 1.1, 1),
		EntryBytes: 512,
		CacheRatio: 0.08,
	})
	if err != nil {
		t.Fatal(err)
	}
	z, _ := workload.NewZipf(8000, 1.1)
	r := rng.New(2)
	b := &extract.Batch{Keys: make([][]int64, p.N)}
	scratch := make(map[int64]struct{})
	for g := 0; g < p.N; g++ {
		keys := make([]int64, 20000)
		for i := range keys {
			keys[i] = z.Sample(r)
		}
		b.Keys[g] = workload.Unique(keys, scratch)
	}
	res, err := sys.ExtractBatch(b, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Time <= 0 {
		t.Fatal("no time")
	}
	// Factored (default) must beat an explicit peer-random run.
	peer, err := sys.Extractor().Run(extract.PeerRandom, b, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Time >= peer.Time {
		t.Fatalf("factored %g not faster than peer %g", res.Time, peer.Time)
	}
	if len(sys.EstimatedTimes()) != p.N {
		t.Fatal("estimates missing")
	}
	st := sys.Stats()
	if len(st) != p.N || st[0].Local <= 0 {
		t.Fatalf("stats %v", st)
	}
}

func TestBuildValidation(t *testing.T) {
	p := platform.ServerA()
	h := testHotness(100, 1.1, 1)
	cases := []Config{
		{Hotness: h, EntryBytes: 4, CacheRatio: 0.1},
		{Platform: p, EntryBytes: 4, CacheRatio: 0.1},
		{Platform: p, Hotness: h, CacheRatio: 0.1},
		{Platform: p, Hotness: h, EntryBytes: 4},
		{Platform: p, Hotness: h, EntryBytes: 4, CacheRatio: 1.5},
	}
	for i, cfg := range cases {
		if _, err := Build(cfg); err == nil {
			t.Fatalf("case %d accepted", i)
		}
	}
}

func TestNegativeCacheEntriesRejected(t *testing.T) {
	p := platform.ServerA()
	_, err := Build(Config{
		Platform:           p,
		Hotness:            testHotness(100, 1.1, 1),
		EntryBytes:         4,
		CacheEntriesPerGPU: -5,
		CacheRatio:         0.1, // must not be silently used as a fallback
	})
	if err == nil {
		t.Fatal("negative CacheEntriesPerGPU accepted")
	}
}

func TestTinyCacheRatioRoundsUp(t *testing.T) {
	// A ratio so small that ratio*n truncates to zero entries must still
	// build a system with at least one cached entry per GPU.
	p := platform.ServerA()
	sys, err := Build(Config{
		Platform:   p,
		Hotness:    testHotness(100, 1.1, 1),
		EntryBytes: 4,
		CacheRatio: 0.001, // 0.1 entries -> rounds up to 1
	})
	if err != nil {
		t.Fatal(err)
	}
	used := sys.Placement().CapacityUsed()
	total := int64(0)
	for _, u := range used {
		total += u
	}
	if total == 0 {
		t.Fatal("tiny ratio produced an empty cache")
	}
}

func TestRefreshFailureLeavesStateIntact(t *testing.T) {
	p := platform.ServerC()
	h := testHotness(2000, 1.1, 5)
	sys, err := Build(Config{Platform: p, Hotness: h, EntryBytes: 64, CacheRatio: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	before := sys.Placement()
	h2 := make(workload.Hotness, len(h))
	for i := range h2 {
		h2[i] = h[len(h)-1-i]
	}
	// Invalid refresh config: cache.Refresh fails after the solve succeeded.
	bad := cache.DefaultRefreshConfig()
	bad.BatchEntries = 0
	if _, err := sys.Refresh(h2, 0.001, bad); err == nil {
		t.Fatal("invalid refresh config accepted")
	}
	if sys.Placement() != before {
		t.Fatal("failed refresh replaced the placement")
	}
	// A well-formed refresh still succeeds afterwards.
	if _, err := sys.Refresh(h2, 0.001, cache.DefaultRefreshConfig()); err != nil {
		t.Fatalf("refresh after failed attempt: %v", err)
	}
	if sys.Placement() == before {
		t.Fatal("successful refresh did not swap the placement")
	}
}

func TestFunctionalLookup(t *testing.T) {
	p := platform.ServerA()
	table, err := emb.NewMaterialized("t", 3000, 8, emb.Float32, 7)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := Build(Config{
		Platform:   p,
		Hotness:    testHotness(3000, 1.2, 3),
		EntryBytes: table.EntryBytes(),
		CacheRatio: 0.1,
		Source:     table,
	})
	if err != nil {
		t.Fatal(err)
	}
	keys := []int64{0, 5, 2999, 17}
	out := make([]byte, len(keys)*table.EntryBytes())
	if err := sys.Lookup(2, keys, out, nil); err != nil {
		t.Fatal(err)
	}
	want := make([]byte, table.EntryBytes())
	for i, k := range keys {
		table.ReadRow(k, want)
		if !bytes.Equal(out[i*table.EntryBytes():(i+1)*table.EntryBytes()], want) {
			t.Fatalf("lookup row %d wrong", k)
		}
	}
}

// failingPolicy fails its solve, or, with invalid set, returns a placement
// that fails Validate.
type failingPolicy struct{ invalid bool }

var errSolve = errors.New("solve refused")

func (failingPolicy) Name() string { return "failing" }

func (f failingPolicy) Solve(in *solver.Input) (*solver.Placement, error) {
	if f.invalid {
		return &solver.Placement{NumGPUs: in.P.N, EntryBytes: in.EntryBytes}, nil
	}
	return nil, errSolve
}

// TestBuildFailureLeavesNothingRunning: a functional Build whose policy fails,
// or whose placement fails Validate, returns that error and drops the arenas
// it was making beside the solve — the goroutine count comes back to where it
// was — and one whose arenas cannot be made says so.
func TestBuildFailureLeavesNothingRunning(t *testing.T) {
	p := platform.ServerC()
	table, err := emb.NewMaterialized("t", 3000, 8, emb.Float32, 7)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Platform: p, Hotness: testHotness(3000, 1.2, 3), EntryBytes: table.EntryBytes(), CacheRatio: 0.1, Source: table}
	if _, err := Build(cfg); err != nil { // the table's build is done, and a working Build leaves nothing either
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	settled := func() int { // the count once it stops falling to before, or after 5 s
		deadline := time.Now().Add(5 * time.Second)
		n := runtime.NumGoroutine()
		for n > before && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
			n = runtime.NumGoroutine()
		}
		return n
	}
	for _, c := range []struct {
		policy solver.Policy
		want   string
	}{
		{failingPolicy{}, errSolve.Error()},
		{failingPolicy{invalid: true}, "invalid placement"},
	} {
		cfg.Policy = c.policy
		sys, err := Build(cfg)
		if err == nil || sys != nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("invalid %v: Build = %v, %v; want an error naming %q", c.policy, sys, err, c.want)
		}
		if n := settled(); n > before {
			t.Fatalf("invalid %v: %d goroutines after the failed Build, %d before", c.policy, n, before)
		}
	}
	cfg.Policy, cfg.CacheRatio = nil, 1
	cfg.EntryBytes = 1 << 20 // 3,000 rows of a MiB: over the 2 GiB a backed arena may hold
	if sys, err := Build(cfg); err == nil || sys != nil || !strings.Contains(err.Error(), "too large") {
		t.Fatalf("Build with 3 GB arenas = %v, %v; want the arena's error", sys, err)
	}
}

func TestPolicyPluggable(t *testing.T) {
	p := platform.ServerC()
	h := testHotness(4000, 1.1, 5)
	var times []float64
	for _, pol := range []solver.Policy{solver.Replication{}, solver.Partition{}, solver.UGache{}} {
		sys, err := Build(Config{
			Platform: p, Hotness: h, EntryBytes: 128, CacheRatio: 0.06, Policy: pol,
		})
		if err != nil {
			t.Fatalf("%s: %v", pol.Name(), err)
		}
		times = append(times, maxOf(sys.EstimatedTimes()))
	}
	// ugache <= min(rep, part)
	if times[2] > math.Min(times[0], times[1])*1.01 {
		t.Fatalf("ugache %g vs rep %g part %g", times[2], times[0], times[1])
	}
}

func TestShouldRefreshAndRefresh(t *testing.T) {
	p := platform.ServerC()
	h := testHotness(4000, 1.2, 5)
	sys, err := Build(Config{
		Platform: p, Hotness: h, EntryBytes: 64, CacheRatio: 0.1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Same hotness: no refresh needed.
	if yes, err := sys.ShouldRefresh(h, 0.1); err != nil || yes {
		t.Fatalf("spurious refresh trigger (err %v)", err)
	}
	// Reversed hotness: the old placement caches the wrong entries.
	h2 := make(workload.Hotness, len(h))
	for i := range h2 {
		h2[i] = h[len(h)-1-i]
	}
	yes, err := sys.ShouldRefresh(h2, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if !yes {
		t.Fatal("refresh not triggered by reversed hotness")
	}
	oldMax := maxOf(sys.EstimatedTimes())
	cfg := cache.DefaultRefreshConfig()
	cfg.BatchEntries = 500
	rep, err := sys.Refresh(h2, 0.001, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Duration <= 0 || rep.InsertedEntries == 0 {
		t.Fatalf("report %+v", rep)
	}
	if rep.Solve.WallSeconds <= 0 {
		t.Fatalf("solve stats %+v: want the measured re-solve", rep.Solve)
	}
	// After refresh the new placement is as good for h2 as the old one was
	// for h.
	newMax := maxOf(sys.EstimatedTimes())
	if newMax > oldMax*1.1 {
		t.Fatalf("refresh did not restore performance: %g vs %g", newMax, oldMax)
	}
	if yes, _ := sys.ShouldRefresh(h2, 0.1); yes {
		t.Fatal("refresh trigger still raised after refresh")
	}
}

// TestRefreshSolveStats runs the full control plane with the OptimalLP
// policy on a reduced 2-GPU instance: the re-solve's measured statistics
// surface in the report, the solve-wall gauge, and the policy-solve and
// refresh-solve spans a trace draws from the refresh's flight record.
func TestRefreshSolveStats(t *testing.T) {
	pair := [][]float64{{0, 50e9}, {50e9, 0}}
	p, err := platform.New(platform.Config{
		Name: "2xV100", Kind: platform.HardWired, GPU: platform.V100x16, N: 2,
		PCIeBW: 12e9, DRAMBW: 140e9, PairBW: pair,
	})
	if err != nil {
		t.Fatal(err)
	}
	const n = 48
	h := make(workload.Hotness, n)
	for e := 0; e < n; e++ {
		h[e] = math.Pow(float64(e+1), -1.2) * 1000
	}
	reg := telemetry.NewRegistry(p.N)
	fl := flight.NewRecorder(1, 8)
	sys, err := Build(Config{
		Platform:           p,
		Hotness:            h,
		EntryBytes:         512,
		CacheEntriesPerGPU: 16,
		Policy:             solver.OptimalLP{},
		Telemetry:          reg,
		Flight:             fl,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sys.Placement().Policy != "optimal-lp" {
		t.Fatalf("policy %q", sys.Placement().Policy)
	}

	// Drift the hotness and refresh: the re-solve's measured stats must be
	// published end to end.
	h2 := make(workload.Hotness, n)
	for e := range h2 {
		h2[e] = h[e] * (1 + 0.2*math.Sin(float64(e)*2.39996))
	}
	cfg := cache.DefaultRefreshConfig()
	cfg.BatchEntries = 8
	rep, err := sys.Refresh(h2, 0.001, cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := rep.Solve
	if st.WallSeconds <= 0 {
		t.Fatalf("solve wall %g", st.WallSeconds)
	}
	vals := map[string]float64{}
	for _, s := range reg.Samples() {
		vals[s.Name] = s.Value
	}
	if vals["cache_refresh_last_solve_wall_seconds"] != st.WallSeconds {
		t.Fatalf("solve wall gauge %g, want %g", vals["cache_refresh_last_solve_wall_seconds"], st.WallSeconds)
	}
	var solveSpan, simSpan *timeline.Event
	_, events := flight.Draw(fl)
	for _, ev := range events {
		switch ev := ev; ev.Name {
		case "policy-solve":
			solveSpan = &ev
		case "refresh-solve":
			simSpan = &ev
		}
	}
	if solveSpan == nil || simSpan == nil {
		t.Fatal("missing policy-solve or refresh-solve span")
	}
	if simSpan.NArgs != 1 || simSpan.Args[0].Key != "solve_wall_seconds" || simSpan.Args[0].Val != st.WallSeconds {
		t.Fatalf("refresh-solve span args %v, want solve_wall_seconds %g", simSpan.Args[:simSpan.NArgs], st.WallSeconds)
	}
	args := map[string]float64{}
	for i := int32(0); i < solveSpan.NArgs; i++ {
		args[solveSpan.Args[i].Key] = solveSpan.Args[i].Val
	}
	// The record's storage summary lines up with the placement it describes.
	pl := sys.Placement()
	if sum := pl.StorageSummary(); args["blocks"] != float64(len(pl.Blocks)) ||
		args["uncached_blocks"] != float64(sum.UncachedBlocks) || args["uncached_mass"] != sum.UncachedMass ||
		args["est_time_max"] != maxOf(pl.EstTimes) {
		t.Fatalf("policy-solve span args %v, placement summary %+v", args, sum)
	}
}

// TestLinkGaugesArePhysical: Build registers one sim_link_util_ gauge per
// physical link of the platform — 33 on Server C — and none for the
// degraded capacities unorganized extraction sees on those same links.
func TestLinkGaugesArePhysical(t *testing.T) {
	reg := telemetry.NewRegistry(8)
	if _, err := Build(Config{
		Platform: platform.ServerC(), Hotness: testHotness(1000, 1.1, 1), EntryBytes: 64, CacheRatio: 0.1, Telemetry: reg,
	}); err != nil {
		t.Fatal(err)
	}
	var gauges []string
	for _, s := range reg.Samples() {
		if strings.HasPrefix(s.Name, "sim_link_util_") {
			gauges = append(gauges, s.Name)
		}
	}
	if len(gauges) != 33 {
		t.Fatalf("%d link gauges, want 33: %v", len(gauges), gauges)
	}
}

func TestRefreshHotnessLengthMismatch(t *testing.T) {
	p := platform.ServerA()
	sys, err := Build(Config{
		Platform: p, Hotness: testHotness(1000, 1.1, 1), EntryBytes: 64, CacheRatio: 0.1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Refresh(testHotness(500, 1.1, 1), 1, cache.DefaultRefreshConfig()); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := sys.ShouldRefresh(testHotness(500, 1.1, 1), 0.1); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

func TestExplicitCapacityOverridesRatio(t *testing.T) {
	p := platform.ServerA()
	sys, err := Build(Config{
		Platform:           p,
		Hotness:            testHotness(1000, 1.1, 1),
		EntryBytes:         64,
		CacheEntriesPerGPU: 123,
		CacheRatio:         0.9, // ignored
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range sys.Placement().CapacityUsed() {
		if u > 123 {
			t.Fatalf("capacity override ignored: %d", u)
		}
	}
}

// TestOwnedShardsServeOneTable: two nodes of a cluster solve the same inputs
// to the same placement (the Owned shard is not part of it), serve the
// table's bytes under their different shards, and each counts as network-tier
// exactly the network-class keys the other one owns.
func TestOwnedShardsServeOneTable(t *testing.T) {
	h := testHotness(2000, 1.1, 3)
	cp, err := platform.ClusterOf(platform.ServerAConfig(), platform.DefaultNetwork(2))
	if err != nil {
		t.Fatal(err)
	}
	table, err := emb.NewMaterialized("t", 2000, 16, emb.Float32, 7)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]int64, 2000)
	for k := range keys {
		keys[k] = int64(k)
	}
	eb := table.EntryBytes()
	var first *solver.Placement
	for node := int64(0); node < 2; node++ {
		reg := telemetry.NewRegistry(cp.N)
		sys, err := Build(Config{
			Platform: cp, Hotness: h, EntryBytes: eb, CacheRatio: 0.1, Source: table, Telemetry: reg,
			Owned: func(k int64) bool { return k%2 == node },
		})
		if err != nil {
			t.Fatal(err)
		}
		pl := sys.Placement()
		if first == nil {
			first = pl
		}
		b := &extract.Batch{Keys: make([][]int64, cp.N)}
		b.Keys[0] = keys
		if _, err := sys.ExtractBatch(b, nil); err != nil {
			t.Fatal(err)
		}
		rows, want := make([]byte, len(keys)*eb), make([]byte, eb)
		if err := sys.Lookup(0, keys, rows, nil); err != nil {
			t.Fatal(err)
		}
		notOwned := 0
		for _, k := range keys {
			if err := table.ReadRow(k, want); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(rows[int(k)*eb:int(k+1)*eb], want) {
				t.Fatalf("node %d key %d: row differs from the table", node, k)
			}
			if pl.SourceOf(0, k) != first.SourceOf(0, k) {
				t.Fatalf("node %d key %d: placement differs from node 0's", node, k)
			}
			if pl.SourceOf(0, k) == cp.Network() && k%2 != node {
				notOwned++
			}
		}
		if got := reg.Value("core_hit_network_keys_total"); notOwned == 0 || got != float64(notOwned) {
			t.Fatalf("node %d: core_hit_network_keys_total = %g, want its %d network-class keys of the other shard", node, got, notOwned)
		}
	}
}

// refreshDrawn refreshes a ServerC system of 2000 Zipf entries onto the
// reversed hotness under cfg and returns the report with the refresh spans
// the trace draws from the refresh's flight record.
func refreshDrawn(t *testing.T, cfg cache.RefreshConfig) (*cache.RefreshReport, []timeline.Event) {
	t.Helper()
	h := testHotness(2000, 1.1, 9)
	fl := flight.NewRecorder(1, 8)
	sys, err := Build(Config{Platform: platform.ServerC(), Hotness: h, EntryBytes: 64, CacheRatio: 0.1, Flight: fl})
	if err != nil {
		t.Fatal(err)
	}
	h2 := make(workload.Hotness, len(h))
	for i := range h2 {
		h2[i] = h[len(h)-1-i]
	}
	rep, err := sys.Refresh(h2, 0.001, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var spans []timeline.Event
	_, events := flight.Draw(fl)
	for _, ev := range events {
		if ev.TID == timeline.TIDRefresh {
			spans = append(spans, ev)
		}
	}
	return rep, spans
}

// TestRefreshTimelineSpans checks a refresh's record draws the Fig.-17 span
// layout: one parent refresh span, one solve child starting with it, and
// per-update-step spans whose busy time tiles the update phase with pause
// gaps, the last one its remainder transfer.
func TestRefreshTimelineSpans(t *testing.T) {
	cfg := cache.DefaultRefreshConfig()
	cfg.BatchEntries = 200
	cfg.UpdateBandwidth = 1e6
	rep, events := refreshDrawn(t, cfg)

	var root, solve *timeline.Event
	var steps []timeline.Event
	for _, ev := range events {
		if ev.PID != timeline.ProcControl {
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
		busy := rep.StepSeconds
		if int64(i) == rep.Steps-1 {
			busy = rep.LastStepSeconds
		}
		if st.Dur != busy {
			t.Fatalf("step %d busy %g, want %g", i, st.Dur, busy)
		}
	}
}

// TestRefreshTimelineTruncation: a diff spanning more than
// flight.MaxRefreshStepSpans update steps draws exactly the cap in step spans plus
// one refresh-update-steps-truncated instant carrying the omitted count; the
// root span's update_steps arg still reports the true total.
func TestRefreshTimelineTruncation(t *testing.T) {
	cfg := cache.DefaultRefreshConfig()
	cfg.BatchEntries = 7 // tiny steps force the span cap
	cfg.UpdateBandwidth = 1e9
	rep, events := refreshDrawn(t, cfg)
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
	for _, ev := range events {
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
