package cluster

import (
	"bytes"
	"maps"
	"testing"
	"time"

	"ugache/internal/cache"
	"ugache/internal/core"
	"ugache/internal/flight"
	"ugache/internal/platform"
	"ugache/internal/rng"
	"ugache/internal/serve"
	"ugache/internal/telemetry"
	"ugache/internal/timeline"
	"ugache/internal/workload"
)

// TestTraceCountsEqualRecordCounts: the trace stores nothing; every track
// is drawn from a flight record (flight.Draw). So a traced two-node run — node 0
// with a drift-triggered refresh controller and lookahead prefetch, both
// nodes sending legs across the router — draws exactly what its rings hold,
// kind by kind: a batch tree per batch record and a link flow per source
// class each record read from (carrying its bytes), and a refresh, solve,
// drift check or prefetch window per control record. A cross-node leg is a
// request in its owner's batch records, so the batch trees' requests sum to
// serve_requests_total, every leg included (the rings being deep enough not
// to wrap). The router lives here, so this is the lowest package where every
// writer meets.
func TestTraceCountsEqualRecordCounts(t *testing.T) {
	const n, kpb, shift, batches = 4096, 512, 64, 160
	wl, err := workload.NewFlashCrowd(n, 0.9, shift, 0)
	if err != nil {
		t.Fatal(err)
	}
	p, err := platform.ClusterOf(platform.ServerAConfig(), platform.DefaultNetwork(2))
	if err != nil {
		t.Fatal(err)
	}
	fl := flight.NewRecorder(2*p.N, 1024)
	reg := telemetry.NewRegistry(p.N)
	ring := newRing(t, 2, defaultVnodes, 1)

	// Node 0 is solved for the crowd to come, so the stream drifts away from
	// its placement twice: from the start, and again at the shift.
	nodes := make([]*Node, 2)
	var ctrl *core.Controller
	for i := range nodes {
		sys, err := core.Build(core.Config{Platform: p, Hotness: wl.ExpectedHotness(shift, kpb),
			EntryBytes: 64, CacheEntriesPerGPU: n / 8, Flight: fl,
			Owned: func(k int64) bool { return ring.Owner(k) == i }})
		if err != nil {
			t.Fatal(err)
		}
		cfg := serve.Config{MaxBatchKeys: kpb, Telemetry: reg, Flight: fl}
		if i == 0 {
			refresh := cache.DefaultRefreshConfig()
			refresh.BatchEntries = 500
			cfg.Sampler = cache.NewHotnessSampler(n, 1)
			ctrl, err = core.NewController(sys, core.ControllerConfig{Mode: core.RefreshDrift, Sampler: cfg.Sampler,
				CheckEvery: 8, Drift: cache.DriftConfig{MinBatches: 16, MaxBatches: 32}, Refresh: refresh})
			if err != nil {
				t.Fatal(err)
			}
			cfg.Controller, cfg.Lookahead = ctrl, 2
		}
		srv, err := serve.New(sys, cfg)
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = &Node{Sys: sys, Srv: srv}
	}
	f, err := NewFront(nodes, FrontConfig{Seed: 1, Telemetry: reg, Flight: fl, Deadline: time.Minute})
	if err != nil {
		t.Fatal(err)
	}

	srv0 := nodes[0].Srv
	peek, r := rng.New(3), rng.New(3) // the announce stream runs two batches ahead
	announce := func(b int) {
		if b < batches {
			srv0.Prefetch(b%p.N, wl.GenBatchAt(peek, b, kpb))
			srv0.WaitPrefetch(b % p.N)
		}
	}
	announce(0)
	announce(1)
	for b := 0; b < batches; b++ {
		announce(b + 2)
		keys := wl.GenBatchAt(r, b, kpb)
		if res := f.Lookup(0, b%p.N, keys); res.Err != nil {
			t.Fatal(res.Err)
		}
		if b%4 == 0 { // node 1 sends legs too
			if res := f.Lookup(1, b%p.N, keys[:kpb/4]); res.Err != nil {
				t.Fatal(res.Err)
			}
		}
	}
	f.Close()
	for _, nd := range nodes {
		nd.Srv.Close() // the prefetch windows and the last flushes finish
	}

	st := ctrl.Stats()
	if st.Refreshes < 2 || st.Errors != 0 {
		t.Fatalf("controller stats %+v: want two refreshes or more", st)
	}
	windows := int(reg.Value("serve_prefetch_windows_total"))
	if windows != batches {
		t.Fatalf("%d windows staged, want one per batch: %d", windows, batches)
	}
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

	records := fl.Trace().Snapshot(nil)
	want[timeline.ProcName{PID: timeline.ProcServe, Name: "batch"}] = len(records)
	var tierBytes float64
	for _, b := range records {
		for _, v := range b.TierBytes {
			if v != 0 {
				want[timeline.ProcName{PID: timeline.ProcSim, Name: "link-flow"}]++
				tierBytes += v
			}
		}
	}

	got := map[timeline.ProcName]int{}
	var flowBytes, requests float64
	_, events := flight.Draw(fl)
	for _, ev := range events {
		k := timeline.ProcName{PID: int64(ev.PID), Name: ev.Name}
		if want[k] == 0 {
			continue
		}
		got[k]++
		switch ev.Name {
		case "link-flow":
			flowBytes += ev.Args[0].Val
		case "batch":
			requests += ev.Args[1].Val
		}
	}
	if !maps.Equal(got, want) {
		t.Fatalf("the trace holds %v,\nthe records %v", got, want)
	}
	if flowBytes != tierBytes {
		t.Fatalf("link flows carry %g bytes, the batch records %g", flowBytes, tierBytes)
	}
	if served := reg.Value("serve_requests_total"); requests != served || reg.Value("cluster_dispatches_total") == 0 {
		t.Fatalf("batch spans answer %g requests, serve_requests_total = %g (%g cross-node legs)",
			requests, served, reg.Value("cluster_dispatches_total"))
	}

	var buf bytes.Buffer
	if _, err := flight.WriteTrace(&buf, fl); err != nil {
		t.Fatal(err)
	}
	if _, err := timeline.Validate(&buf); err != nil {
		t.Fatal(err)
	}
}
