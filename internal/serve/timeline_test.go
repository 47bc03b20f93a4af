package serve

import (
	"bytes"
	"maps"
	"testing"

	"ugache/internal/cache"
	"ugache/internal/core"
	"ugache/internal/flight"
	"ugache/internal/platform"
	"ugache/internal/rng"
	"ugache/internal/telemetry"
	"ugache/internal/timeline"
	"ugache/internal/workload"
)

// TestServeTimelineSpans drives a functional server with a timeline
// recorder attached and checks the exported span trees: every flushed batch
// is a parent span with its phase children nested inside, fluid-sim link
// flows land on the sim tracks with sane utilizations, and the whole export
// passes the Chrome trace validator.
func TestServeTimelineSpans(t *testing.T) {
	sys, _ := buildFunctional(t, 3000)
	rec := timeline.NewRecorder(sys.P.N, 4096)
	srv, err := New(sys, Config{Timeline: rec})
	if err != nil {
		t.Fatal(err)
	}
	keys := []int64{1, 7, 7, 2999, 42, 0}
	for i := 0; i < 4; i++ {
		for g := 0; g < 2; g++ {
			if _, err := srv.Lookup(g, keys); err != nil {
				t.Fatal(err)
			}
		}
	}
	srv.Close()

	type spanKey struct {
		tid  int32
		name string
	}
	batches := 0
	children := map[spanKey]int{}
	linkFlows := 0
	var root *timeline.Event
	for _, ev := range rec.Events() {
		ev := ev
		switch {
		case ev.PID == timeline.ProcServe && ev.Name == "batch":
			batches++
			if root == nil {
				root = &ev
			}
		case ev.PID == timeline.ProcServe:
			children[spanKey{ev.TID, ev.Name}]++
		case ev.PID == timeline.ProcSim && ev.Name == "link-flow":
			linkFlows++
			var util float64
			for i := int32(0); i < ev.NArgs; i++ {
				if ev.Args[i].Key == "util" {
					util = ev.Args[i].Val
				}
			}
			if util <= 0 || util > 1+1e-9 {
				t.Fatalf("link-flow util %g out of (0, 1]", util)
			}
		}
	}
	if batches == 0 {
		t.Fatal("no batch spans recorded")
	}
	if linkFlows == 0 {
		t.Fatal("no link-flow spans recorded")
	}
	for _, name := range []string{"queue-wait", "coalesce", "extract", "gather", "reply"} {
		found := false
		for k := range children {
			if k.name == name {
				found = true
			}
		}
		if !found {
			t.Fatalf("no %q child spans (children: %v)", name, children)
		}
	}

	// Children of the first batch nest within it (same tid, same tree).
	for _, ev := range rec.Events() {
		if ev.PID != timeline.ProcServe || ev.Name == "batch" || ev.TID != root.TID {
			continue
		}
		if ev.Start < root.Start+root.Dur+1e-9 && ev.Start+ev.Dur > root.Start+root.Dur+1e-6 {
			t.Fatalf("%s span [%g, %g] leaks past its batch [%g, %g]",
				ev.Name, ev.Start, ev.Start+ev.Dur, root.Start, root.Start+root.Dur)
		}
		break // only the first tree; later batches interleave
	}

	var buf bytes.Buffer
	if err := rec.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	rep, err := timeline.Validate(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n := rep.Names[timeline.ProcName{PID: timeline.ProcServe, Name: "batch"}]; n != batches {
		t.Fatalf("export has %d batch spans, recorder had %d", n, batches)
	}
}

// TestServeNoTimelineNoSpans pins the default: without a recorder the
// worker scratch carries no span shard and sim phase recording stays off.
func TestServeNoTimelineNoSpans(t *testing.T) {
	sys, _ := buildFunctional(t, 1000)
	srv, err := New(sys, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if _, err := srv.Lookup(0, []int64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if srv.tl != nil {
		t.Fatal("server has a recorder without one configured")
	}
}

// TestControlTracksOutliveSpanShards: a traced run's refreshes, solves,
// drift checks and staged prefetch windows are drawn from the flight control
// ring, so every one of them is in the trace however often the per-batch
// link-flow spans have wrapped the span shards.
func TestControlTracksOutliveSpanShards(t *testing.T) {
	const n, kpb, shift, batches = 4096, 512, 64, 160
	wl, err := workload.NewFlashCrowd(n, 0.9, shift, 0)
	if err != nil {
		t.Fatal(err)
	}
	p := platform.ServerA()
	fl := flight.NewRecorder(p.N, 512)
	tl := timeline.NewRecorder(p.N, 64)
	fl.DrawControl(tl)
	// Solved for the crowd to come, so the stream drifts away from the
	// placement twice: from the start, and again at the shift.
	sys, err := core.Build(core.Config{Platform: p, Hotness: wl.ExpectedHotness(shift, kpb),
		EntryBytes: 64, CacheEntriesPerGPU: n / 8, Flight: fl})
	if err != nil {
		t.Fatal(err)
	}
	sampler := cache.NewHotnessSampler(n, 1)
	ctrl, err := core.NewController(sys, core.ControllerConfig{Mode: core.RefreshDrift, Sampler: sampler,
		CheckEvery: 8, Drift: cache.DriftConfig{MinBatches: 16, MaxBatches: 32}, Refresh: quickRefreshConfig()})
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry(p.N)
	srv, err := New(sys, Config{MaxBatchKeys: kpb, Telemetry: reg, Sampler: sampler, Controller: ctrl,
		Timeline: tl, Flight: fl, Lookahead: 2})
	if err != nil {
		t.Fatal(err)
	}
	peek, r := rng.New(3), rng.New(3) // the announce stream runs two batches ahead
	announce := func(b int) {
		if b < batches {
			srv.Prefetch(b%p.N, wl.GenBatchAt(peek, b, kpb))
			srv.WaitPrefetch(b % p.N)
		}
	}
	announce(0)
	announce(1)
	for b := 0; b < batches; b++ {
		announce(b + 2)
		if _, err := srv.Lookup(b%p.N, wl.GenBatchAt(r, b, kpb)); err != nil {
			t.Fatal(err)
		}
	}
	srv.Close()

	st := ctrl.Stats()
	if st.Refreshes < 2 || st.Errors != 0 {
		t.Fatalf("controller stats %+v: want two refreshes or more", st)
	}
	if tl.Dropped() == 0 {
		t.Fatal("the link flows never wrapped a span shard")
	}
	windows := int(sampleValue(t, reg, "serve_prefetch_windows_total"))
	want := map[timeline.ProcName]int{
		{PID: timeline.ProcControl, Name: "refresh"}:          int(st.Refreshes),
		{PID: timeline.ProcControl, Name: "refresh-solve"}:    int(st.Refreshes),
		{PID: timeline.ProcControl, Name: "policy-solve"}:     int(st.Refreshes),
		{PID: timeline.ProcControl, Name: "drift-check"}:      int(st.Checks),
		{PID: timeline.ProcPrefetch, Name: "prefetch-window"}: windows,
		{PID: timeline.ProcPrefetch, Name: "filter"}:          windows,
		{PID: timeline.ProcPrefetch, Name: "extract"}:         windows,
		{PID: timeline.ProcPrefetch, Name: "stage"}:           windows,
	}
	got := map[timeline.ProcName]int{}
	for _, ev := range tl.Events() {
		if k := (timeline.ProcName{PID: int64(ev.PID), Name: ev.Name}); want[k] > 0 {
			got[k]++
		}
	}
	if windows != batches || !maps.Equal(got, want) {
		t.Fatalf("%d windows staged; the trace holds %v, want %v", windows, got, want)
	}
}
