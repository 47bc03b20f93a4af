// ugache-serve runs a closed-loop multi-client DLR inference workload
// against the concurrent serving engine: N client goroutines issue lookup
// requests for Zipf-drawn embedding keys, the per-GPU coalescer batches
// them into iteration-sized extractions, and the run reports throughput,
// request latency percentiles, and the simulated extraction times of the
// coalesced batches.
//
// With -open-loop the closed-loop clients are replaced by rate-driven
// dispatchers: arrivals are scheduled by -qps alone (Poisson or bursty
// MMPP), never by completions, so the engine can be pushed past its
// admission knee and the run reports sheds alongside the latency of
// admitted requests (measured from intended arrival time).
//
// Usage:
//
//	ugache-serve -dataset SYN-A -clients 16 -requests 200
//	ugache-serve -dataset CR -scale 0.1 -ratio 0.08 -max-batch 4096
//	ugache-serve -refresh -trace-out trace.json   # Perfetto-loadable spans
//	ugache-serve -open-loop -qps 200000 -arrivals mmpp -duration 5s
//	ugache-serve -open-loop -qps 300000 -admission 500us   # bounded wait
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"ugache/internal/cache"
	"ugache/internal/core"
	"ugache/internal/flight"
	"ugache/internal/platform"
	"ugache/internal/prof"
	"ugache/internal/rng"
	"ugache/internal/serve"
	"ugache/internal/solver"
	"ugache/internal/stats"
	"ugache/internal/telemetry"
	"ugache/internal/timeline"
	"ugache/internal/workload"
)

// options bundles the command's knobs (one field per flag).
type options struct {
	dataset    string
	server     string
	scale      float64
	ratio      float64
	clients    int
	requests   int
	batch      int
	maxBatch   int
	seed       uint64
	listen     string
	traceOut   string
	refresh    bool
	mode       string
	driftThr   float64
	checkEvery int
	period     int
	workers    int
	relgap     float64
	lookahead  int
	staleThr   int

	openLoop   bool
	qps        float64
	arrivals   string
	users      int64
	duration   time.Duration
	admission  string
	queueDepth int

	flight      bool
	flightDepth int
	sloP99Ms    float64
	bundleDir   string
	metricsOut  string
	pprofOn     bool

	nodes      int
	netBW      float64
	netLatency time.Duration
}

func main() {
	var o options
	flag.StringVar(&o.dataset, "dataset", "SYN-A", "DLR dataset: CR, SYN-A or SYN-B")
	flag.StringVar(&o.server, "server", "C", "platform: A (4xV100), B (8xV100 DGX-1) or C (8xA100)")
	flag.Float64Var(&o.scale, "scale", 0.05, "dataset scale multiplier")
	flag.Float64Var(&o.ratio, "ratio", 0.10, "per-GPU cache ratio")
	flag.IntVar(&o.clients, "clients", 8, "concurrent closed-loop clients")
	flag.IntVar(&o.requests, "requests", 100, "requests per client")
	flag.IntVar(&o.batch, "batch", 16, "inference samples per request")
	flag.IntVar(&o.maxBatch, "max-batch", 8192, "cap on one coalesced batch, in pending keys")
	flag.Uint64Var(&o.seed, "seed", 42, "random seed")
	flag.StringVar(&o.listen, "listen", "", "serve /metrics, /debug/trace, /debug/timeline, /healthz and /readyz on this address (e.g. :9090); keeps the process alive after the run until interrupted")
	flag.StringVar(&o.traceOut, "trace-out", "", "record a span timeline and write Chrome trace-event JSON (Perfetto / chrome://tracing) to this file at exit")
	flag.BoolVar(&o.refresh, "refresh", false, "shorthand for -refresh-mode post")
	flag.StringVar(&o.mode, "refresh-mode", "off", "refresh policy: off, post (one refresh after the client loop), periodic (blind cadence) or drift (re-solve when measured hotness drifts)")
	flag.Float64Var(&o.driftThr, "drift-threshold", 0, "drift score above which a re-solve triggers (0 = detector default 0.3)")
	flag.IntVar(&o.checkEvery, "drift-check-every", 0, "batches between drift checks (0 = controller default 32)")
	flag.IntVar(&o.period, "refresh-period", 0, "batches between periodic-mode re-solves (0 = controller default 512)")
	flag.IntVar(&o.workers, "solver-workers", 0, "branch-and-bound workers for optioned policies (0/1 sequential, -1 all cores)")
	flag.Float64Var(&o.relgap, "relgap", 0, "relative optimality gap for optioned policies (0 proves optimality)")
	flag.IntVar(&o.lookahead, "lookahead", 0, "lookahead prefetch depth L: clients announce request i+L before issuing request i (0 disables the prefetch pipeline)")
	flag.IntVar(&o.staleThr, "stale-threshold", 0, "bounded-staleness window S in batches: staged rows from an outgoing placement snapshot stay servable up to S batches past their commit (0 = staged rows die with their snapshot)")
	flag.BoolVar(&o.openLoop, "open-loop", false, "replace the closed-loop clients with open-loop dispatchers that offer load at -qps regardless of completions")
	flag.Float64Var(&o.qps, "qps", 50_000, "open-loop offered request rate across all GPUs")
	flag.StringVar(&o.arrivals, "arrivals", "poisson", "open-loop arrival process: poisson or mmpp (bursty)")
	flag.Int64Var(&o.users, "users", 1_000_000, "open-loop simulated user population (per-user key affinity is hash-derived, so millions cost nothing)")
	flag.DurationVar(&o.duration, "duration", 2*time.Second, "open-loop run length")
	flag.StringVar(&o.admission, "admission", "fastfail", "admission policy when the per-GPU queue is full: fastfail (shed immediately with ErrOverload) or a wait bound like 500us (shed only after waiting that long for space)")
	flag.IntVar(&o.queueDepth, "queue-depth", 0, "per-GPU admission queue depth (0 = engine default 256)")
	flag.BoolVar(&o.flight, "flight", true, "run the flight recorder: control events, the SLO watchdog and diagnostic bundles (the per-batch records behind /debug/trace are kept either way, 256 deep without it)")
	flag.IntVar(&o.flightDepth, "flight-depth", 4096, "per-worker record ring depth in batches: how far back /debug/trace, the flight JSONL and the timeline's batch trees reach")
	flag.Float64Var(&o.sloP99Ms, "slo-p99-ms", 0, "admitted-request p99 SLO in milliseconds; > 0 arms the watchdog (p99, shed ratio, queue saturation, solve wall, prefetch drops) to write a diagnostic bundle on violation")
	flag.StringVar(&o.bundleDir, "bundle-dir", "ugache-bundles", "directory diagnostic bundles are written under (watchdog trips, SIGQUIT, POST /debug/flight/bundle)")
	flag.StringVar(&o.metricsOut, "metrics-out", "", "write the final telemetry snapshot as JSON to this file at exit")
	flag.BoolVar(&o.pprofOn, "pprof", false, "expose net/http/pprof under /debug/pprof/ on the -listen address")
	flag.IntVar(&o.nodes, "nodes", 1, "cluster mode: run N in-process nodes behind the consistent-hash router (closed-loop only)")
	flag.Float64Var(&o.netBW, "net-bw", 25e9, "cluster inter-machine link bandwidth in bytes/s")
	flag.DurationVar(&o.netLatency, "net-latency", 10*time.Microsecond, "cluster inter-machine one-way latency")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file at exit")
	blockprofile := flag.String("blockprofile", "", "write a goroutine blocking profile to this file at exit")
	mutexprofile := flag.String("mutexprofile", "", "write a mutex contention profile to this file at exit")
	blockRate := flag.Int("block-profile-rate", 0, "runtime block profile rate in ns per sampled event (0 off; 1 samples every block)")
	mutexFrac := flag.Int("mutex-profile-fraction", 0, "runtime mutex profile fraction (sample 1/n contended events; 0 off)")
	flag.Parse()
	stopProf, err := prof.StartWith(prof.Config{
		CPUProfile:           *cpuprofile,
		MemProfile:           *memprofile,
		BlockProfile:         *blockprofile,
		MutexProfile:         *mutexprofile,
		BlockProfileRate:     *blockRate,
		MutexProfileFraction: *mutexFrac,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "ugache-serve: %v\n", err)
		os.Exit(1)
	}
	runErr := run(o)
	if err := stopProf(); err != nil && runErr == nil {
		runErr = err
	}
	if runErr != nil {
		fmt.Fprintf(os.Stderr, "ugache-serve: %v\n", runErr)
		os.Exit(1)
	}
}

// latencyQuantiles returns the p50, p99 and maximum of the measured request
// latencies.
func latencyQuantiles(lats []time.Duration) (p50, p99, max time.Duration) {
	sample := make([]float64, len(lats))
	for i, l := range lats {
		sample[i] = float64(l)
	}
	q := stats.Quantiles(sample, 0.50, 0.99, 1)
	return time.Duration(q[0]), time.Duration(q[1]), time.Duration(q[2])
}

// setUp is what both modes start from: the platform (the clustered twin of
// -server under -nodes N), the -dataset built at -scale, and the hotness of
// 64 profiling batches of one iteration's worth of requests each, drawn
// from the stream the seed and the dataset's name give.
func setUp(o options) (*platform.Platform, *workload.DLRDataset, workload.Hotness, error) {
	spec, err := workload.DLRSpecByName(o.dataset)
	if err != nil {
		return nil, nil, nil, err
	}
	var p *platform.Platform
	if o.nodes > 1 {
		p, err = clusterPlatform(o.server, o.nodes, o.netBW, o.netLatency)
	} else {
		p, err = platform.ByName(o.server)
	}
	if err != nil {
		return nil, nil, nil, err
	}
	ds, err := spec.Build(o.scale, o.seed)
	if err != nil {
		return nil, nil, nil, err
	}
	fmt.Printf("dataset %s at scale %g: %d tables, %d entries, %d B rows\n",
		spec.Name, o.scale, ds.KeysPerSample(), ds.NumEntries(), ds.MT.MaxEntryBytes())
	if o.nodes > 1 {
		fmt.Printf("cluster:           %d nodes of %s, wire %.0f GB/s, %.0fus one-way\n",
			o.nodes, p.Name, o.netBW/1e9, o.netLatency.Seconds()*1e6)
	}
	r := rng.New(o.seed).Split("dlr-" + spec.Name)
	var rec [][]int64
	for i := 0; i < 64; i++ {
		rec = append(rec, ds.GenBatchWith(r, o.batch*o.clients))
	}
	hot, err := workload.ProfileBatches(ds.NumEntries(), rec)
	return p, ds, hot, err
}

func run(o options) error {
	if o.nodes < 1 {
		return fmt.Errorf("-nodes must be >= 1, got %d", o.nodes)
	}
	if o.nodes > 1 {
		return runCluster(o)
	}
	// -refresh-mode post (and its -refresh shorthand) is a command-level
	// policy: one refresh after the client loop. The in-loop policies
	// (periodic, drift) are the controller's.
	admitWait := time.Duration(0)
	if !strings.EqualFold(o.admission, "fastfail") {
		var err error
		if admitWait, err = time.ParseDuration(o.admission); err != nil || admitWait <= 0 {
			return fmt.Errorf("-admission: want fastfail or a positive wait bound like 500us, got %q", o.admission)
		}
	}
	post := o.refresh || strings.EqualFold(o.mode, "post")
	mode := core.RefreshOff
	if !strings.EqualFold(o.mode, "post") {
		var err error
		if mode, err = core.ParseRefreshMode(o.mode); err != nil {
			return err
		}
	}
	p, ds, hot, err := setUp(o)
	if err != nil {
		return err
	}
	n := ds.NumEntries()
	// The system is built in functional mode so lookups return (and verify
	// against) real bytes. One registry is shared across the core
	// (extraction tiers, refresh) and the serving engine (latency,
	// coalescing); the HTTP handler reads it.
	// The span recorder, when -trace-out asks for one, is shared the same
	// way so serve, sim, refresh and solver spans land in one trace.
	reg := telemetry.NewRegistry(p.N)
	var tl *timeline.Recorder
	if o.traceOut != "" || o.flight {
		// Flight keeps the span recorder on even without -trace-out: the
		// watchdog's bundles dump the current timeline window, and exemplar
		// batch seqs resolve into its span trees.
		tl = timeline.NewRecorder(p.N, 0)
	}
	var fl *flight.Recorder
	if o.flight {
		fl = flight.NewRecorder(p.N, o.flightDepth)
	}
	health := telemetry.NewHealth()
	t0 := time.Now()
	sys, err := core.Build(core.Config{
		Platform:   p,
		Hotness:    hot,
		EntryBytes: ds.MT.MaxEntryBytes(),
		CacheRatio: o.ratio,
		Source:     ds.MT,
		Solver:     solver.Options{Workers: o.workers, RelGap: o.relgap},
		Telemetry:  reg,
		Timeline:   tl,
		Flight:     fl,
	})
	if err != nil {
		return err
	}
	fmt.Printf("built %s: cache ratio %g solved and filled in %.2fs\n",
		p.Name, o.ratio, time.Since(t0).Seconds())

	var sampler *cache.HotnessSampler
	if post || mode != core.RefreshOff {
		sampler = cache.NewHotnessSampler(n, 1)
	}
	var ctrl *core.Controller
	if mode != core.RefreshOff {
		ctrl, err = core.NewController(sys, core.ControllerConfig{
			Mode:          mode,
			Sampler:       sampler,
			CheckEvery:    o.checkEvery,
			PeriodBatches: o.period,
			Drift:         cache.DriftConfig{Threshold: o.driftThr},
			Telemetry:     reg,
			Async:         true,
		})
		if err != nil {
			return err
		}
		switch mode {
		case core.RefreshDrift:
			fmt.Printf("refresh mode drift: top-1/16 overlap + rank distance, threshold %.2f\n", ctrl.Detector().Config().Threshold)
		case core.RefreshPeriodic:
			period := o.period
			if period <= 0 {
				period = 512
			}
			fmt.Printf("refresh mode periodic: re-solve every %d batches\n", period)
		}
	}
	srv, err := serve.New(sys, serve.Config{
		MaxBatchKeys: o.maxBatch,
		Telemetry:    reg,
		Sampler:      sampler,
		Controller:   ctrl,
		Timeline:     tl,
		Flight:       fl,
		Lookahead:    o.lookahead,
		StaleBatches: o.staleThr,
		QueueDepth:   o.queueDepth,
		AdmitWait:    admitWait,
	})
	if err != nil {
		return err
	}
	if o.lookahead > 0 {
		fmt.Printf("prefetch:          lookahead %d, staleness window %d batches, %d staged rows/GPU\n",
			o.lookahead, o.staleThr, srv.StagingArena(0).Capacity())
	}

	// The watchdog rides the flight recorder: -slo-p99-ms > 0 arms the full
	// SLO signal set (bundles on sustained violation); otherwise the recorder
	// still runs and manual triggers (SIGQUIT, the /debug endpoint) work.
	var wd *flight.Watchdog
	if fl != nil {
		slo := flight.SLO{}
		if o.sloP99Ms > 0 {
			slo = flight.SLO{
				P99:                  time.Duration(o.sloP99Ms * float64(time.Millisecond)),
				MaxShedRatio:         0.05,
				MaxQueueFrac:         0.9,
				MaxSolveWall:         2 * time.Second,
				MaxPrefetchDropRatio: 0.5,
			}
		}
		wd, err = flight.NewWatchdog(flight.WatchdogConfig{
			SLO:           slo,
			Registry:      reg,
			Recorder:      fl,
			QueueCapacity: srv.QueueCapacity(),
			Bundle: flight.BundleConfig{
				Dir:      o.bundleDir,
				Recorder: fl,
				Registry: reg,
				Timeline: tl,
			},
			OnBundle: func(path string, err error) {
				if err != nil {
					fmt.Fprintf(os.Stderr, "ugache-serve: flight bundle: %v\n", err)
					return
				}
				fmt.Printf("flight:            wrote diagnostic bundle %s\n", path)
			},
		})
		if err != nil {
			return err
		}
		wd.Start()
		if o.sloP99Ms > 0 {
			fmt.Printf("flight:            %d rings x %d records; watchdog armed (p99 %gms, bundles -> %s)\n",
				fl.Workers(), o.flightDepth, o.sloP99Ms, o.bundleDir)
		} else {
			fmt.Printf("flight:            %d rings x %d records; watchdog disarmed (SIGQUIT or POST /debug/flight/bundle for a manual bundle)\n",
				fl.Workers(), o.flightDepth)
		}
	}
	health.SetReady(true)

	// finalize is the single shutdown path, shared by normal completion and
	// SIGINT/SIGTERM: stop advertising readiness, drain the workers, write
	// the span timeline, and report the final telemetry snapshot.
	var finalizeOnce sync.Once
	finalize := func() {
		finalizeOnce.Do(func() {
			health.SetReady(false)
			srv.Close()
			if wd != nil {
				wd.Close()
			}
			if ctrl != nil {
				ctrl.Wait()
				cst := ctrl.Stats()
				fmt.Printf("controller:        %d batches, %d checks, %d refreshes, %d errors\n",
					cst.Batches, cst.Checks, cst.Refreshes, cst.Errors)
				if mode == core.RefreshDrift {
					fmt.Printf("drift:             last score %.3f (overlap %.3f, rank distance %.3f)\n",
						cst.LastScore, cst.LastOverlap, cst.LastRankDistance)
				}
				if cst.Refreshes > 0 {
					fmt.Printf("incremental delta: last refresh moved %d entries (full rebuild: %d)\n",
						cst.LastMoved, cst.LastRebuild)
				}
			}
			if err := writeTrace(tl, o.traceOut, " (open in https://ui.perfetto.dev)"); err != nil {
				fmt.Fprintf(os.Stderr, "ugache-serve: %v\n", err)
			}
			if wd != nil {
				st := wd.State()
				fmt.Printf("flight:            %d records, %d watchdog trips\n",
					fl.Recorded(), st.Trips)
				if st.LastBundlePath != "" {
					fmt.Printf("flight bundle:     %s\n", st.LastBundlePath)
				}
			}
			if err := writeMetricsJSON(reg, o.metricsOut); err != nil {
				fmt.Fprintf(os.Stderr, "ugache-serve: %v\n", err)
			}
			printFinalSnapshot(reg)
		})
	}
	defer finalize()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	go func() {
		s, ok := <-sig
		if !ok {
			return
		}
		fmt.Printf("\nreceived %v; flushing\n", s)
		finalize()
		os.Exit(0)
	}()

	// SIGQUIT freezes the evidence without killing the run: drain the flight
	// rings and profiles into a bundle and keep serving (the default Go
	// SIGQUIT behaviour — stack dump and exit — is preempted by the Notify).
	if wd != nil {
		sigq := make(chan os.Signal, 1)
		signal.Notify(sigq, syscall.SIGQUIT)
		defer signal.Stop(sigq)
		go func() {
			for range sigq {
				if _, err := wd.TriggerBundle("sigquit"); err != nil {
					fmt.Fprintf(os.Stderr, "ugache-serve: flight bundle: %v\n", err)
				}
			}
		}()
	}

	if o.listen != "" {
		ln, err := net.Listen("tcp", o.listen)
		if err != nil {
			return fmt.Errorf("telemetry listener: %w", err)
		}
		defer ln.Close()
		hcfg := telemetry.HandlerConfig{
			Registry:    reg,
			Trace:       srv.Trace(),
			Timeline:    tl,
			Health:      health,
			EnablePprof: o.pprofOn,
		}
		if wd != nil {
			// Assigned only when non-nil: a typed-nil *Watchdog in the
			// interface field would pass the handler's nil check and panic.
			hcfg.Flight = wd
		}
		handler := telemetry.NewHandler(hcfg)
		go func() {
			if err := http.Serve(ln, handler); err != nil {
				// The listener closes on exit; anything else is worth a note.
				fmt.Fprintf(os.Stderr, "ugache-serve: telemetry server: %v\n", err)
			}
		}()
		fmt.Printf("telemetry:         http://%s/metrics (also /debug/trace, /debug/timeline, /debug/flight, /healthz, /readyz)\n", ln.Addr())
	}

	if o.openLoop {
		if err := runOpenLoop(o, srv, p, int64(n), reg, admitWait); err != nil {
			return err
		}
		if post {
			fmt.Println("note: -refresh post is a closed-loop report; skipped in open-loop mode")
		}
		if o.listen != "" {
			fmt.Printf("\nrun complete; telemetry still live on %s — Ctrl-C to exit\n", o.listen)
			select {} // the signal goroutine finalizes and exits the process
		}
		return nil
	}

	// Closed loop: each client issues its next request as soon as the
	// previous one completes, round-robining destination GPUs.
	latencies := make([][]time.Duration, o.clients)
	var simSum float64
	var simMu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	errCh := make(chan error, o.clients)
	for c := 0; c < o.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r := rng.New(o.seed).Split(fmt.Sprintf("client%d", c))
			// The peek stream is a same-seeded replica of r running L requests
			// ahead: announcing request i+L's exact keys before issuing request
			// i is the lookahead oracle the prefetch pipeline stages against.
			peekR := rng.New(o.seed).Split(fmt.Sprintf("client%d", c))
			announce := func(i int) {
				if o.lookahead == 0 || i >= o.requests {
					return
				}
				srv.Prefetch((c+i)%p.N, ds.GenBatchWith(peekR, o.batch))
			}
			for i := 0; i < o.lookahead; i++ {
				announce(i)
			}
			lats := make([]time.Duration, 0, o.requests)
			var localSim float64
			for i := 0; i < o.requests; i++ {
				announce(i + o.lookahead)
				keys := ds.GenBatchWith(r, o.batch)
				reqStart := time.Now()
				res, err := srv.Lookup((c+i)%p.N, keys)
				if err != nil {
					errCh <- fmt.Errorf("client %d: %w", c, err)
					return
				}
				lats = append(lats, time.Since(reqStart))
				localSim += res.SimSeconds
			}
			latencies[c] = lats
			simMu.Lock()
			simSum += localSim
			simMu.Unlock()
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	close(errCh)
	for err := range errCh {
		return err
	}

	var all []time.Duration
	for _, l := range latencies {
		all = append(all, l...)
	}
	p50, p99, maxLat := latencyQuantiles(all)
	st := srv.Stats()
	total := len(all)
	fmt.Printf("\n%d clients x %d requests (%d samples each) in %.2fs\n",
		o.clients, o.requests, o.batch, wall.Seconds())
	fmt.Printf("throughput:        %.0f req/s, %.0f keys/s\n",
		float64(total)/wall.Seconds(), float64(st.RequestedKeys)/wall.Seconds())
	fmt.Printf("latency:           p50 %v  p99 %v  max %v\n", p50, p99, maxLat)
	fmt.Printf("coalescing:        %d batches, %.1f unique keys/batch (%.1f requested)\n",
		st.Batches, st.MeanBatchKeys(), float64(st.RequestedKeys)/float64(maxI64(st.Batches, 1)))
	fmt.Printf("simulated extract: %.3f ms/batch mean, %.1f ms total per request stream\n",
		st.SimSeconds/float64(maxI64(st.Batches, 1))*1e3, simSum/float64(maxI64(int64(o.clients), 1))*1e3)

	printHitTiers(reg, fmt.Sprintf(" (of %d unique keys)", st.UniqueKeys))
	if o.lookahead > 0 {
		hits := reg.Value("serve_fill_prefetch_hit")
		fmt.Printf("prefetch:          %.0f windows staged %.0f keys; %.0f staged hits (%.1f%% of unique), %.0f dropped windows\n",
			reg.Value("serve_prefetch_windows_total"), reg.Value("serve_prefetch_staged_keys_total"),
			hits, 100*hits/float64(maxI64(st.UniqueKeys, 1)), reg.Value("serve_prefetch_dropped_windows_total"))
		if stale := reg.Value("serve_stale_served_keys_total"); stale > 0 {
			fmt.Printf("stale serving:     %.0f keys served from outgoing snapshots within S=%d\n", stale, o.staleThr)
		}
	}

	// One §7.2 refresh against the hotness measured during the run, so the
	// control tracks (solver + refresh steps) appear in the timeline.
	if post {
		measured, err := sampler.Hotness()
		if err != nil {
			return fmt.Errorf("refresh: %w", err)
		}
		baseIter := st.SimSeconds / float64(maxI64(st.Batches, 1))
		if baseIter <= 0 {
			baseIter = 1e-3
		}
		rep, err := sys.Refresh(measured, baseIter, cache.DefaultRefreshConfig())
		if err != nil {
			return fmt.Errorf("refresh: %w", err)
		}
		fmt.Printf("refresh:           %d evicted, %d inserted in %.1fs simulated (%.1f%% mean impact)\n",
			rep.EvictedEntries, rep.InsertedEntries, rep.Duration, 100*rep.MeanImpact)
		if st := rep.Solve; st != nil {
			// Workers and the warm start are a fact only of a policy that
			// takes solver options; the default one solves cold.
			how := ""
			if st.WarmStart {
				how = fmt.Sprintf(" (workers %d, warm start", st.Workers)
				if st.Nodes > 0 {
					how += fmt.Sprintf(", %d B&B nodes", st.Nodes)
				}
				how += ")"
			}
			fmt.Printf("refresh solve:     %.3fs wall%s\n", st.WallSeconds, how)
		}
	}

	if o.listen != "" {
		fmt.Printf("\nrun complete; telemetry still live on %s — Ctrl-C to exit\n", o.listen)
		select {} // the signal goroutine finalizes and exits the process
	}
	return nil
}

// runOpenLoop drives the engine with rate-scheduled arrivals: one
// dispatcher per GPU offers its share of -qps whether or not the server
// keeps up, which is what exposes the admission knee — a closed loop slows
// its own offer the moment the server saturates. Sheds (ErrOverload) are an
// expected outcome and are reported, not treated as failures; latency of
// admitted requests is measured from each request's intended arrival time,
// so dispatcher lag cannot hide queueing delay (coordinated omission).
func runOpenLoop(o options, srv *serve.Server, p *platform.Platform, numKeys int64, reg *telemetry.Registry, admitWait time.Duration) error {
	arr, err := workload.ParseArrival(o.arrivals)
	if err != nil {
		return err
	}
	if o.qps <= 0 {
		return fmt.Errorf("-open-loop needs -qps > 0, got %g", o.qps)
	}

	// One pending-queue entry per in-flight request. Each GPU has one
	// dispatcher and its driver completes requests FIFO, so polling the head
	// of the queue collects results without a goroutine per request.
	type pending struct {
		ch       <-chan serve.Result
		intended time.Time
	}
	var (
		mu         sync.Mutex
		lats       []time.Duration
		dispatched int64
		served     int64
		shed       int64
		firstErr   error
	)
	fmt.Printf("\nopen loop:         %s arrivals at %.0f qps offered for %v (%d users, %d keys/request, admission %s)\n",
		arr, o.qps, o.duration, o.users, o.batch, o.admission)
	var wg sync.WaitGroup
	start := time.Now()
	for d := 0; d < p.N; d++ {
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			gen, err := workload.NewOpenLoop(workload.OpenLoopConfig{
				QPS:            o.qps / float64(p.N),
				Arrivals:       arr,
				Users:          o.users,
				NumKeys:        numKeys,
				KeysPerRequest: o.batch,
			}, o.seed+uint64(d)*7919)
			if err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
				return
			}
			epoch := time.Now()
			var q []pending
			var nDisp, nServed, nShed int64
			var myLats []time.Duration
			// settle books the result of the oldest in-flight request.
			settle := func(res serve.Result) {
				switch {
				case res.Err == nil:
					nServed++
					myLats = append(myLats, time.Since(q[0].intended))
				case errors.Is(res.Err, serve.ErrOverload):
					nShed++
				default:
					mu.Lock()
					if firstErr == nil {
						firstErr = res.Err
					}
					mu.Unlock()
				}
				q = q[1:]
			}
			// collect settles what has completed, or with block everything.
			collect := func(block bool) {
				for len(q) > 0 {
					if block {
						settle(<-q[0].ch)
						continue
					}
					select {
					case res := <-q[0].ch:
						settle(res)
					default:
						return
					}
				}
			}
			var req workload.OpenLoopRequest
			for {
				gen.Next(&req)
				if req.At >= o.duration {
					break
				}
				intended := epoch.Add(req.At)
				if wait := time.Until(intended); wait > 0 {
					time.Sleep(wait)
				}
				keys := append([]int64(nil), req.Keys...)
				q = append(q, pending{ch: srv.Handle(d, keys), intended: intended})
				nDisp++
				collect(false)
			}
			collect(true)
			mu.Lock()
			dispatched += nDisp
			served += nServed
			shed += nShed
			lats = append(lats, myLats...)
			mu.Unlock()
		}(d)
	}
	wg.Wait()
	wall := time.Since(start)
	if firstErr != nil {
		return firstErr
	}

	p50, p99, maxLat := latencyQuantiles(lats)
	offered := float64(dispatched) / o.duration.Seconds()
	shedPct := 0.0
	if dispatched > 0 {
		shedPct = 100 * float64(shed) / float64(dispatched)
	}
	fmt.Printf("offered:           %d requests, %.0f qps measured (target %.0f)\n", dispatched, offered, o.qps)
	fmt.Printf("served:            %d requests, %.0f qps; shed %d (%.1f%%) via ErrOverload\n",
		served, float64(served)/wall.Seconds(), shed, shedPct)
	if admitWait > 0 {
		fmt.Printf("admission:         bounded wait %v; %.0f requests admitted after waiting (serve_admit_wait_admitted_total)\n",
			admitWait, reg.Value("serve_admit_wait_admitted_total"))
	} else {
		fmt.Printf("admission:         fast-fail (queue full sheds immediately; serve_rejected_total %.0f)\n",
			reg.Value("serve_rejected_total"))
	}
	fmt.Printf("queue:             peak depth %.0f of %d (serve_queue_depth_peak)\n",
		reg.Value("serve_queue_depth_peak"), srv.QueueCapacity())
	fmt.Printf("latency (from intended arrival): p50 %v  p99 %v  max %v\n", p50, p99, maxLat)
	return nil
}

// writeTrace exports the recorder to path, if -trace-out named one, and
// says so; note ends the line.
func writeTrace(tl *timeline.Recorder, path, note string) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace-out: %w", err)
	}
	if err := tl.WriteTrace(f); err != nil {
		f.Close()
		return fmt.Errorf("trace-out: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("trace-out: %w", err)
	}
	fmt.Printf("timeline:          %d spans -> %s%s\n", len(tl.Events()), path, note)
	return nil
}

// writeMetricsJSON dumps the registry's Samples snapshot as one flat JSON
// object (name -> value) — the machine-readable form of the final telemetry,
// so short runs keep it without scraping the HTTP endpoint. Without
// -metrics-out it does nothing.
func writeMetricsJSON(reg *telemetry.Registry, path string) error {
	if path == "" {
		return nil
	}
	samples := reg.Samples()
	out := make(map[string]float64, len(samples))
	for _, s := range samples {
		out[s.Name] = s.Value
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("metrics-out: %w", err)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		f.Close()
		return fmt.Errorf("metrics-out: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("metrics-out: %w", err)
	}
	fmt.Printf("metrics:           final snapshot -> %s\n", path)
	return nil
}

// printHitTiers reports the per-tier hit split of the run from the shared
// registry (local / peer / host / network); note ends the line.
func printHitTiers(reg *telemetry.Registry, note string) {
	local, remote, host, network := reg.Value("core_hit_local_keys_total"),
		reg.Value("core_hit_remote_keys_total"), reg.Value("core_hit_host_keys_total"),
		reg.Value("core_hit_network_keys_total")
	if sum := local + remote + host + network; sum > 0 {
		fmt.Printf("hit tiers:         %.1f%% local, %.1f%% remote, %.1f%% host, %.1f%% network%s\n",
			100*local/sum, 100*remote/sum, 100*host/sum, 100*network/sum, note)
	}
}

// printFinalSnapshot reports the closing telemetry state: the cumulative
// totals plus any per-link peak-utilization gauges the run produced.
func printFinalSnapshot(reg *telemetry.Registry) {
	fmt.Printf("\nfinal telemetry snapshot:\n")
	for _, s := range reg.Samples() {
		switch {
		case s.Name == "serve_requests_total" || s.Name == "serve_batches_total" ||
			s.Name == "serve_unique_keys_total" || s.Name == "cache_refresh_total" ||
			s.Name == "core_extract_total" || s.Name == "serve_rejected_total" ||
			s.Name == "serve_admit_wait_admitted_total":
			fmt.Printf("  %-42s %.0f\n", s.Name, s.Value)
		case strings.HasPrefix(s.Name, "serve_queue_depth_peak") && s.Value > 0:
			fmt.Printf("  %-42s %.0f\n", s.Name, s.Value)
		case strings.HasPrefix(s.Name, "sim_link_peak_util") && s.Value > 0:
			fmt.Printf("  %-42s %.3f\n", s.Name, s.Value)
		}
	}
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
