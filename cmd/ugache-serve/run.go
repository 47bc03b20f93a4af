package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"slices"
	"strings"
	"sync"
	"syscall"
	"time"

	"ugache/internal/cache"
	"ugache/internal/cluster"
	"ugache/internal/core"
	"ugache/internal/flight"
	"ugache/internal/platform"
	"ugache/internal/rng"
	"ugache/internal/serve"
	"ugache/internal/solver"
	"ugache/internal/stats"
	"ugache/internal/telemetry"
	"ugache/internal/timeline"
	"ugache/internal/workload"
)

// run is the whole program: check the options, build the engine, serve,
// drive the load, report, shut down. Cancelling ctx stops the load where it
// is (the summary of an interrupted run is not printed) and, under -listen,
// ends the wait after the run; either way the shutdown is the same and run
// returns nil. The report goes to w, which the watchdog also writes to from
// its own goroutine when it trips, so w must take concurrent writes.
func run(ctx context.Context, o options, w io.Writer) (err error) {
	e := &engine{o: o, w: w, health: telemetry.NewHealth()}
	if err := e.check(); err != nil {
		return err
	}
	if err := e.build(); err != nil {
		e.stop()
		return err
	}
	defer func() { err = errors.Join(err, e.shutdown(ctx)) }()

	if o.openLoop {
		err = e.openLoop(ctx)
	} else {
		err = e.closedLoop(ctx)
	}
	if err == nil && o.listen != "" && ctx.Err() == nil {
		fmt.Fprintf(w, "\nrun complete; telemetry still live on %s — Ctrl-C to exit\n", o.listen)
		<-ctx.Done()
	}
	return err
}

// engine is one run: what check resolves the flag values to, and what build
// makes and shutdown takes down — -nodes serving nodes (one, unless it is
// cluster mode) over one registry and flight recorder.
type engine struct {
	o options
	w io.Writer

	mode     core.RefreshMode // the controller's in-loop policy
	post     bool             // -refresh-mode post: one refresh after the closed loop, the command's own policy
	arrivals workload.Arrival // -arrivals, open loop only

	p       *platform.Platform // one machine's; the clustered twin under -nodes N
	ds      *workload.DLRDataset
	reg     *telemetry.Registry
	fl      *flight.Recorder // nil without -trace-out or -flight
	wd      *flight.Watchdog // nil without -flight
	health  *telemetry.Health
	nodes   []*cluster.Node
	front   *cluster.Front // nil with one node
	sampler *cache.HotnessSampler
	ctrl    *core.Controller

	sigq chan os.Signal // SIGQUIT: a manual bundle
	http *http.Server   // nil without -listen
	bg   sync.WaitGroup // the SIGQUIT and HTTP goroutines
}

// check resolves the flag values that need parsing and refuses the
// combinations the command does not run, before anything is built.
func (e *engine) check() (err error) {
	o := e.o
	if o.nodes < 1 {
		return fmt.Errorf("-nodes must be >= 1, got %d", o.nodes)
	}
	if o.batch < 1 {
		return fmt.Errorf("-batch must be >= 1, got %d", o.batch)
	}
	if e.post = strings.EqualFold(o.mode, "post"); !e.post {
		if e.mode, err = core.ParseRefreshMode(o.mode); err != nil {
			return err
		}
	}
	// Refresh and prefetch act on one system, and the router has no
	// asynchronous entry point for an open loop to offer load through.
	if o.nodes > 1 && (o.openLoop || e.post || e.mode != core.RefreshOff || o.lookahead > 0) {
		return fmt.Errorf("-nodes > 1 supports the closed-loop client mode only (no -open-loop, -refresh-mode, -lookahead)")
	}
	if o.openLoop {
		if e.arrivals, err = workload.ParseArrival(o.arrivals); err != nil {
			return err
		}
		if o.qps <= 0 {
			return fmt.Errorf("-open-loop needs -qps > 0, got %g", o.qps)
		}
	}
	return nil
}

// build makes the platform (the clustered twin of -server under -nodes N),
// the -dataset at -scale and the hotness of 64 profiling batches of one
// iteration's worth of requests each; solves and fills the nodes; and starts
// everything a run serves with: workers, router, watchdog, listener. When it
// fails part-way, stop ends what it had started.
func (e *engine) build() (err error) {
	o, w := e.o, e.w
	spec, err := workload.DLRSpecByName(o.dataset)
	if err != nil {
		return err
	}
	if o.nodes > 1 {
		// The same GPUs and intra-machine links, joined to nodes-1 peers over
		// the configured network fabric.
		var cfg platform.Config
		if cfg, err = platform.ConfigByName(o.server); err == nil {
			e.p, err = platform.ClusterOf(cfg, platform.NetworkConfig{Machines: o.nodes, LinkBW: o.netBW, LatencySec: o.netLatency.Seconds()})
		}
	} else {
		e.p, err = platform.ByName(o.server)
	}
	if err != nil {
		return err
	}
	if e.ds, err = spec.Build(o.scale, o.seed); err != nil {
		return err
	}
	p, ds := e.p, e.ds
	fmt.Fprintf(w, "dataset %s at scale %g: %d tables, %d entries, %d B rows\n",
		spec.Name, o.scale, ds.KeysPerSample(), ds.NumEntries(), ds.MT.MaxEntryBytes())
	if o.nodes > 1 {
		fmt.Fprintf(w, "cluster:           %d nodes of %s, wire %.0f GB/s, %.0fus one-way\n",
			o.nodes, p.Name, o.netBW/1e9, o.netLatency.Seconds()*1e6)
	}
	// The open loop serves workload.OpenLoop's stream, one Zipf over the
	// flattened key space rather than the dataset's per-table heads, so it
	// profiles 64 batches of openLoopProfile requests from a stream of its own
	// config, seeded apart from the one served.
	var rec [][]int64
	if o.openLoop {
		gens, err := e.streams(o.seed + 1)
		if err != nil {
			return err
		}
		rec = make([][]int64, 64)
		var req workload.OpenLoopRequest
		for i := range len(rec) * openLoopProfile {
			gens[i%len(gens)].Next(&req)
			rec[i/openLoopProfile] = append(rec[i/openLoopProfile], req.Keys...)
		}
	}
	r := rng.New(o.seed).Split("dlr-" + spec.Name)
	for len(rec) < 64 {
		rec = append(rec, ds.GenBatchWith(r, o.batch*o.clients))
	}
	hot, err := workload.ProfileBatches(ds.NumEntries(), rec)
	if err != nil {
		return err
	}

	// One registry and flight recorder shared by the core (extraction tiers,
	// refresh), every node's serving engine and the router, so /metrics, the
	// trace and a bundle show the whole run. The recorder draws the trace
	// from its rings, so -trace-out runs it even under -flight=false, and
	// -flight keeps it for the trace a bundle dumps, whose exemplar batch
	// resolves into that trace's span trees.
	workers := p.N * o.nodes
	e.reg = telemetry.NewRegistry(workers)
	if o.traceOut != "" || o.flight {
		e.fl = flight.NewRecorder(workers, o.flightDepth)
	}
	if e.post || e.mode != core.RefreshOff {
		e.sampler = cache.NewHotnessSampler(ds.NumEntries(), 1)
	}

	// The systems are built in functional mode, so lookups return (and verify
	// against) real bytes. Every node solves the same platform, hotness and
	// capacity, so node 0 solves and the rest take its placement; what differs
	// is the shard of the ring a node owns, and the ring is a function of
	// (nodes, vnodes, seed), so the router's own is its twin.
	ring := cluster.MustRing(o.nodes, cluster.DefaultVnodes, o.seed)
	t0 := time.Now()
	var placement *solver.Placement
	for i := 0; i < o.nodes; i++ {
		var owned func(int64) bool
		if o.nodes > 1 {
			owned = func(k int64) bool { return ring.Owner(k) == i }
		}
		sys, err := core.Build(core.Config{
			Platform:   p,
			Hotness:    hot,
			EntryBytes: ds.MT.MaxEntryBytes(),
			CacheRatio: o.ratio,
			Source:     ds.MT,
			Placement:  placement,
			Owned:      owned,
			Telemetry:  e.reg,
			Flight:     e.fl,
		})
		if err != nil {
			return fmt.Errorf("node %d: %w", i, err)
		}
		placement = sys.Placement()
		if e.mode != core.RefreshOff { // one node: check refused the rest
			e.ctrl, err = core.NewController(sys, core.ControllerConfig{
				Mode:          e.mode,
				Sampler:       e.sampler,
				CheckEvery:    o.checkEvery,
				PeriodBatches: o.period,
				Drift:         cache.DriftConfig{Threshold: o.driftThr},
				Telemetry:     e.reg,
				Async:         true,
			})
			if err != nil {
				return err
			}
		}
		srv, err := serve.New(sys, serve.Config{
			MaxBatchKeys: o.maxBatch,
			Telemetry:    e.reg,
			Sampler:      e.sampler,
			Controller:   e.ctrl,
			Flight:       e.fl,
			Lookahead:    o.lookahead,
			StaleBatches: o.staleThr,
			QueueDepth:   o.queueDepth,
		})
		if err != nil {
			return fmt.Errorf("node %d: %w", i, err)
		}
		e.nodes = append(e.nodes, &cluster.Node{Sys: sys, Srv: srv})
	}
	srv := e.nodes[0].Srv
	if o.nodes > 1 {
		e.front, err = cluster.NewFront(e.nodes, cluster.FrontConfig{Seed: o.seed, Telemetry: e.reg, Flight: e.fl})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "built %d nodes:     cache ratio %g solved once and filled per node in %.2fs\n",
			o.nodes, o.ratio, time.Since(t0).Seconds())
	} else {
		fmt.Fprintf(w, "built %s: cache ratio %g solved and filled in %.2fs\n", p.Name, o.ratio, time.Since(t0).Seconds())
	}
	switch {
	case e.mode == core.RefreshDrift:
		fmt.Fprintf(w, "refresh mode drift: top-1/16 overlap + rank distance, threshold %.2f\n", e.ctrl.Detector().Config().Threshold)
	case e.mode == core.RefreshPeriodic && o.period > 0: // a cadence left to the controller's default is the controller's to name
		fmt.Fprintf(w, "refresh mode periodic: re-solve every %d batches\n", o.period)
	}
	if o.lookahead > 0 {
		fmt.Fprintf(w, "prefetch:          lookahead %d, staleness window %d batches, %d staged rows/GPU\n",
			o.lookahead, o.staleThr, srv.StagingArena(0).Capacity())
	}

	// The watchdog rides the flight recorder: -slo-p99-ms > 0 arms the full
	// SLO signal set (bundles on sustained violation); otherwise the recorder
	// still runs and manual triggers (SIGQUIT, the /debug endpoint) work.
	hcfg := telemetry.HandlerConfig{Registry: e.reg, Trace: srv.Trace(), Health: e.health, EnablePprof: o.pprofOn}
	if e.fl != nil {
		// Every node's rings. Assigned only when there is a recorder: a
		// typed-nil *Recorder in the interface would pass the handler's nil
		// check.
		hcfg.Trace, hcfg.Timeline = e.fl.Trace(), e.fl
	}
	if o.flight {
		slo, armed := flight.SLO{}, "disarmed (SIGQUIT or POST /debug/flight/bundle for a manual bundle)"
		if o.sloP99Ms > 0 {
			armed = fmt.Sprintf("armed (p99 %gms, bundles -> %s)", o.sloP99Ms, o.bundleDir)
			slo = flight.SLO{
				P99:                  time.Duration(o.sloP99Ms * float64(time.Millisecond)),
				MaxShedRatio:         0.05,
				MaxQueueFrac:         0.9,
				MaxSolveWall:         2 * time.Second,
				MaxPrefetchDropRatio: 0.5,
			}
		}
		e.wd, err = flight.NewWatchdog(flight.WatchdogConfig{
			SLO:           slo,
			Registry:      e.reg,
			Recorder:      e.fl,
			QueueCapacity: srv.QueueCapacity(),
			Bundle:        flight.BundleConfig{Dir: o.bundleDir, Recorder: e.fl, Registry: e.reg},
			OnBundle: func(path string, err error) {
				if err != nil {
					fmt.Fprintf(os.Stderr, "ugache-serve: flight bundle: %v\n", err)
					return
				}
				fmt.Fprintf(w, "flight:            wrote diagnostic bundle %s\n", path)
			},
		})
		if err != nil {
			return err
		}
		e.wd.Start()
		fmt.Fprintf(w, "flight:            %d rings x %d records; watchdog %s\n", e.fl.Workers(), o.flightDepth, armed)
		// SIGQUIT freezes the evidence without killing the run: drain the
		// flight rings and profiles into a bundle and keep serving (the default
		// Go SIGQUIT behaviour — stack dump and exit — is preempted by the
		// Notify).
		e.sigq = make(chan os.Signal, 1)
		signal.Notify(e.sigq, syscall.SIGQUIT)
		e.bg.Add(1)
		go func() {
			defer e.bg.Done()
			for range e.sigq {
				e.wd.TriggerBundle("sigquit") // OnBundle says where it went, or why not
			}
		}()
		// The watchdog, assigned only when there is one, as the recorder.
		hcfg.Flight = e.wd
	}
	e.health.SetReady(true)

	if o.listen != "" {
		ln, err := net.Listen("tcp", o.listen)
		if err != nil {
			return fmt.Errorf("telemetry listener: %w", err)
		}
		e.http = &http.Server{Handler: telemetry.NewHandler(hcfg)}
		e.bg.Add(1)
		go func() {
			defer e.bg.Done()
			if err := e.http.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintf(os.Stderr, "ugache-serve: telemetry server: %v\n", err)
			}
		}()
		fmt.Fprintf(w, "telemetry:         http://%s/metrics (also /debug/trace, /debug/timeline, /debug/flight, /healthz, /readyz)\n", ln.Addr())
	}
	return nil
}

// stop is the quiet half of the shutdown, and all of it when build fails
// part-way: stop advertising readiness, drain the router and the workers,
// and end the goroutines build started.
func (e *engine) stop() {
	e.health.SetReady(false)
	if e.front != nil {
		e.front.Close()
	}
	for _, nd := range e.nodes {
		nd.Srv.Close()
	}
	if e.wd != nil {
		e.wd.Close()
	}
	if e.sigq != nil {
		signal.Stop(e.sigq)
		close(e.sigq)
	}
	if e.http != nil {
		e.http.Close()
	}
	e.bg.Wait()
}

// shutdown is the one way a run ends, completed or cancelled: stop, then
// what the drained engine has to say — the controller's tally, the span
// timeline, the flight recorder's, the metrics file and the final snapshot.
func (e *engine) shutdown(ctx context.Context) error {
	w := e.w
	if ctx.Err() != nil {
		fmt.Fprintf(w, "\ninterrupted; flushing\n")
	}
	e.stop()
	if e.ctrl != nil {
		e.ctrl.Wait()
		cst := e.ctrl.Stats()
		fmt.Fprintf(w, "controller:        %d batches, %d checks, %d refreshes, %d errors\n",
			cst.Batches, cst.Checks, cst.Refreshes, cst.Errors)
		if e.mode == core.RefreshDrift {
			fmt.Fprintf(w, "drift:             last score %.3f (overlap %.3f, rank distance %.3f)\n",
				cst.LastScore, cst.LastOverlap, cst.LastRankDistance)
		}
		if cst.Refreshes > 0 {
			fmt.Fprintf(w, "incremental delta: last refresh moved %d entries (full rebuild: %d)\n",
				cst.LastMoved, cst.LastRebuild)
		}
	}
	var errs []error
	if e.o.traceOut != "" {
		tracks, events := flight.Draw(e.fl)
		err := writeFile(e.o.traceOut, func(f io.Writer) error { return timeline.Write(f, tracks, events) })
		if err == nil {
			fmt.Fprintf(w, "timeline:          %d spans -> %s (open in https://ui.perfetto.dev)\n", len(events), e.o.traceOut)
		}
		errs = append(errs, err)
	}
	if e.wd != nil {
		st := e.wd.State()
		fmt.Fprintf(w, "flight:            %d records, %d watchdog trips\n", e.fl.Recorded(), st.Trips)
		if st.LastBundlePath != "" {
			fmt.Fprintf(w, "flight bundle:     %s\n", st.LastBundlePath)
		}
	}
	if e.o.metricsOut != "" {
		// The registry's Samples as one flat JSON object (name -> value): the
		// machine-readable form of the final telemetry, so a short run keeps
		// it without scraping the HTTP endpoint.
		out := map[string]float64{}
		for _, s := range e.reg.Samples() {
			out[s.Name] = s.Value
		}
		err := writeFile(e.o.metricsOut, func(f io.Writer) error {
			enc := json.NewEncoder(f)
			enc.SetIndent("", "  ")
			return enc.Encode(out)
		})
		if err == nil {
			fmt.Fprintf(w, "metrics:           final snapshot -> %s\n", e.o.metricsOut)
		}
		errs = append(errs, err)
	}
	// The closing telemetry state: the cumulative totals plus any queue peak
	// and the per-link utilization of the last extraction.
	fmt.Fprintf(w, "\nfinal telemetry snapshot:\n")
	for _, s := range e.reg.Samples() {
		switch {
		case s.Name == "serve_requests_total" || s.Name == "serve_batches_total" ||
			s.Name == "serve_unique_keys_total" || s.Name == "cache_refresh_total" ||
			s.Name == "core_extract_total" || s.Name == "serve_rejected_total" ||
			strings.HasPrefix(s.Name, "serve_queue_depth_peak") && s.Value > 0:
			fmt.Fprintf(w, "  %-42s %.0f\n", s.Name, s.Value)
		case strings.HasPrefix(s.Name, "sim_link_util_") && s.Value > 0:
			fmt.Fprintf(w, "  %-42s %.3f\n", s.Name, s.Value)
		}
	}
	return errors.Join(errs...)
}

// writeFile creates path and fills it with write; every failure names path.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return fmt.Errorf("%s: %w", path, err)
	}
	return f.Close()
}

// lookup issues one closed-loop request through the run's front door — the
// router with several nodes, the one server without — and returns the
// modelled seconds of the batch it rode in. A partial result is an outcome,
// not an error: the router counts it and the summary reports it.
func (e *engine) lookup(node, gpu int, keys []int64) (sim float64, err error) {
	if e.front == nil {
		res, err := e.nodes[0].Srv.Lookup(gpu, keys)
		return res.SimSeconds, err
	}
	res := e.front.Lookup(node, gpu, keys)
	if errors.Is(res.Err, cluster.ErrPartial) {
		return res.SimSeconds, nil
	}
	return res.SimSeconds, res.Err
}

// closedLoop is the default load: each client issues its next request as
// soon as the previous one completes, sticking to node c%N (session
// affinity) and round-robining that node's GPUs; then the summary, and
// under -refresh-mode post the one refresh.
func (e *engine) closedLoop(ctx context.Context) error {
	o, w, p := e.o, e.w, e.p
	// What client c measured, written by client c alone.
	lats := make([][]float64, o.clients) // nanoseconds
	sims := make([]float64, o.clients)
	errs := make([]error, o.clients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < o.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			node := c % o.nodes
			r := rng.New(o.seed).Split(fmt.Sprintf("client%d", c))
			// The peek stream is a same-seeded replica of r running L requests
			// ahead: announcing request i+L's exact keys before issuing request
			// i is the lookahead oracle the prefetch pipeline stages against.
			peekR := rng.New(o.seed).Split(fmt.Sprintf("client%d", c))
			announce := func(i int) {
				if o.lookahead > 0 && i < o.requests {
					e.nodes[node].Srv.Prefetch((c+i)%p.N, e.ds.GenBatchWith(peekR, o.batch))
				}
			}
			for i := 0; i < o.lookahead; i++ {
				announce(i)
			}
			lats[c] = make([]float64, 0, o.requests)
			for i := 0; i < o.requests && ctx.Err() == nil; i++ {
				announce(i + o.lookahead)
				keys := e.ds.GenBatchWith(r, o.batch)
				reqStart := time.Now()
				sim, err := e.lookup(node, (c+i)%p.N, keys)
				if err != nil {
					errs[c] = fmt.Errorf("client %d: %w", c, err)
					return
				}
				lats[c] = append(lats[c], float64(time.Since(reqStart)))
				sims[c] += sim
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start).Seconds()
	if err := errors.Join(errs...); err != nil || ctx.Err() != nil {
		return err
	}
	var simSum float64
	for _, sim := range sims {
		simSum += sim
	}

	// The registry is shared, so one node's Stats are the run's.
	st := e.nodes[0].Srv.Stats()
	batches := float64(max(st.Batches, 1))
	metric := e.reg.Value
	all := slices.Concat(lats...)
	q := stats.Quantiles(all, 0.50, 0.99, 1)
	// The two headings that name what they count, per mode.
	over, tiersOf := fmt.Sprintf(" over %d nodes", o.nodes), ""
	if e.front == nil {
		over, tiersOf = "", fmt.Sprintf(" (of %d unique keys)", st.UniqueKeys)
	}
	fmt.Fprintf(w, "\n%d clients x %d requests (%d samples each)%s in %.2fs\n", o.clients, o.requests, o.batch, over, wall)
	fmt.Fprintf(w, "throughput:        %.0f req/s, %.0f keys/s\n", float64(len(all))/wall, float64(st.RequestedKeys)/wall)
	fmt.Fprintf(w, "latency:           p50 %v  p99 %v  max %v\n", time.Duration(q[0]), time.Duration(q[1]), time.Duration(q[2]))
	if e.front == nil {
		fmt.Fprintf(w, "coalescing:        %d batches, %.1f unique keys/batch (%.1f requested)\n",
			st.Batches, st.MeanBatchKeys(), float64(st.RequestedKeys)/batches)
		fmt.Fprintf(w, "simulated extract: %.3f ms/batch mean, %.1f ms total per request stream\n",
			st.SimSeconds/batches*1e3, simSum/float64(max(o.clients, 1))*1e3)
	}
	local, remote, host, network := metric("core_hit_local_keys_total"), metric("core_hit_remote_keys_total"),
		metric("core_hit_host_keys_total"), metric("core_hit_network_keys_total")
	if sum := local + remote + host + network; sum > 0 {
		fmt.Fprintf(w, "hit tiers:         %.1f%% local, %.1f%% remote, %.1f%% host, %.1f%% network%s\n",
			100*local/sum, 100*remote/sum, 100*host/sum, 100*network/sum, tiersOf)
	}
	if e.front != nil {
		fmt.Fprintf(w, "router:            %.0f lookups; %.0f keys local, %.0f cross-node (%.0f legs, %.1f keys/leg)\n",
			metric("cluster_lookups_total"), metric("cluster_local_keys_total"),
			metric("cluster_remote_keys_total"), metric("cluster_dispatches_total"),
			metric("cluster_dispatch_keys_total")/max(metric("cluster_dispatches_total"), 1))
		fmt.Fprintf(w, "cross-node bytes:  %.1f MB over the wire\n", metric("cluster_cross_node_bytes_total")/1e6)
		if partials := metric("cluster_partial_lookups_total"); partials > 0 {
			fmt.Fprintf(w, "partial results:   %.0f lookups returned partial (%.0f keys missed the deadline)\n",
				partials, metric("cluster_missing_keys_total"))
		}
	}
	if o.lookahead > 0 {
		for g := 0; g < p.N; g++ { // the last announced windows may still be staging
			e.nodes[0].Srv.WaitPrefetch(g)
		}
		hits := metric("serve_fill_prefetch_hit")
		fmt.Fprintf(w, "prefetch:          %.0f windows staged %.0f keys; %.0f staged hits (%.1f%% of unique), %.0f dropped windows\n",
			metric("serve_prefetch_windows_total"), metric("serve_prefetch_staged_keys_total"),
			hits, 100*hits/float64(max(st.UniqueKeys, 1)), metric("serve_prefetch_dropped_windows_total"))
		if stale := metric("serve_stale_served_keys_total"); stale > 0 {
			fmt.Fprintf(w, "stale serving:     %.0f keys served from outgoing snapshots within S=%d\n", stale, o.staleThr)
		}
	}
	if !e.post {
		return nil
	}

	// One §7.2 refresh against the hotness measured during the run, so the
	// control tracks (solver + refresh steps) appear in the trace.
	measured, err := e.sampler.Hotness()
	if err != nil {
		return fmt.Errorf("refresh: %w", err)
	}
	baseIter := st.SimSeconds / batches
	if baseIter <= 0 {
		baseIter = 1e-3
	}
	rep, err := e.nodes[0].Sys.Refresh(measured, baseIter, cache.DefaultRefreshConfig())
	if err != nil {
		return fmt.Errorf("refresh: %w", err)
	}
	fmt.Fprintf(w, "refresh:           %d evicted, %d inserted in %.1fs simulated (%.1f%% mean impact)\n",
		rep.EvictedEntries, rep.InsertedEntries, rep.Duration, 100*rep.MeanImpact)
	if rep.Solve != nil {
		fmt.Fprintf(w, "refresh solve:     %.3fs wall\n", rep.Solve.WallSeconds)
	}
	return nil
}

// openLoop drives the one server with rate-scheduled arrivals: one poller
// offers every GPU its share of -qps whether or not the server keeps up,
// which is what exposes the admission knee — a closed loop slows its own
// offer the moment the server saturates. Sheds (ErrOverload) are reported,
// not treated as failures, and admitted requests are timed three ways (see
// the package comment), so the driver's delay is not mistaken for the server's.
func (e *engine) openLoop(ctx context.Context) error {
	o, w, srv := e.o, e.w, e.nodes[0].Srv
	gens, err := e.streams(o.seed)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nopen loop:         %s arrivals at %.0f qps offered for %v (%d users, %d keys/request)\n",
		e.arrivals, o.qps, o.duration, o.users, o.batch)
	var lags, observed []float64 // nanoseconds, of the served requests
	var sent, shed int
	var failed error
	start := time.Now()
	stalls := workload.DriveOpenLoop(ctx, gens, o.duration,
		func(gpu int, keys []int64) <-chan serve.Result {
			sent++
			return srv.Handle(gpu, keys)
		},
		func(_ int, res serve.Result, lag, obs time.Duration) {
			switch {
			case res.Err == nil:
				lags = append(lags, float64(lag))
				observed = append(observed, float64(obs))
			case errors.Is(res.Err, serve.ErrOverload):
				shed++
			case failed == nil:
				failed = res.Err
			}
		})
	wall := time.Since(start)
	if failed != nil || ctx.Err() != nil {
		return failed
	}

	served := len(observed)
	fmt.Fprintf(w, "offered:           %d requests, %.0f qps measured (target %.0f)\n",
		sent, float64(sent)/o.duration.Seconds(), o.qps)
	fmt.Fprintf(w, "served:            %d requests, %.0f qps; shed %d (%.1f%%) via ErrOverload\n",
		served, float64(served)/wall.Seconds(), shed, 100*float64(shed)/float64(max(sent, 1)))
	fmt.Fprintf(w, "admission:         fast-fail (queue full sheds immediately; serve_rejected_total %.0f)\n",
		e.reg.Value("serve_rejected_total"))
	fmt.Fprintf(w, "queue:             peak depth %.0f of %d (serve_queue_depth_peak)\n",
		e.reg.Value("serve_queue_depth_peak"), srv.QueueCapacity())
	lq, oq := stats.Quantiles(lags, 0.50, 0.99), stats.Quantiles(observed, 0.50, 0.99)
	engine := e.reg.Find("serve_request_latency_seconds").(*telemetry.Histogram)
	sec := func(q float64) time.Duration { return time.Duration(engine.Quantile(q) * float64(time.Second)) }
	fmt.Fprintf(w, "lag:               p50 %v  p99 %v  (intended arrival -> Handle; %d stalls shifted the schedule)\n",
		time.Duration(lq[0]), time.Duration(lq[1]), stalls)
	fmt.Fprintf(w, "engine:            p50 %v  p99 %v  (enqueue -> reply, serve_request_latency_seconds)\n", sec(0.50), sec(0.99))
	fmt.Fprintf(w, "observed:          p50 %v  p99 %v  (intended arrival -> reply noticed)\n", time.Duration(oq[0]), time.Duration(oq[1]))
	if e.post {
		fmt.Fprintln(w, "note: -refresh-mode post is a closed-loop report; skipped in open-loop mode")
	}
	return nil
}

// openLoopProfile is how many requests, of -batch keys each, one profiled
// batch of the open loop holds: as many as the closed loop's batch of
// -clients x -batch samples at the default flags, whatever -clients is.
const openLoopProfile = 128

// streams builds the open loop's generators, GPU d's share of -qps drawn
// from seed+d*7919: the stream the poller serves, and a stream of the same
// config seeded apart that build profiles the placement from.
func (e *engine) streams(seed uint64) ([]*workload.OpenLoop, error) {
	gens := make([]*workload.OpenLoop, e.p.N)
	for d := range gens {
		var err error
		gens[d], err = workload.NewOpenLoop(workload.OpenLoopConfig{
			QPS:            e.o.qps / float64(e.p.N),
			Arrivals:       e.arrivals,
			Users:          e.o.users,
			NumKeys:        e.ds.NumEntries(),
			KeysPerRequest: e.o.batch,
		}, seed+uint64(d)*7919)
		if err != nil {
			return nil, err
		}
	}
	return gens, nil
}
