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
	"ugache/internal/core"
	"ugache/internal/flight"
	"ugache/internal/platform"
	"ugache/internal/rng"
	"ugache/internal/serve"
	"ugache/internal/stats"
	"ugache/internal/telemetry"
	"ugache/internal/workload"
)

// run is the whole program: check the options, build the engine, serve,
// drive the load, report, shut down. Cancelling ctx stops the load where it
// is (the summary of an interrupted run is not printed) and, under -listen,
// ends the wait after the run; either way the shutdown is the same and run
// returns nil. The report goes to w, which the SIGQUIT handler also writes to
// from its own goroutine when it writes a bundle, so w must take concurrent
// writes.
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
// makes and shutdown takes down — one system and its serving engine over one
// registry and flight recorder.
type engine struct {
	o options
	w io.Writer

	mode core.RefreshMode // the controller's in-loop policy
	post bool             // -refresh-mode post: one refresh after the closed loop, the command's own policy

	p       *platform.Platform
	ds      *workload.DLRDataset
	reg     *telemetry.Registry
	fl      *flight.Recorder
	health  *telemetry.Health
	sys     *core.System
	srv     *serve.Server
	sampler *cache.HotnessSampler
	ctrl    *core.Controller

	sigq chan os.Signal // SIGQUIT: a manual bundle
	http *http.Server   // nil without -listen
	bg   sync.WaitGroup // the SIGQUIT and HTTP goroutines
}

// check resolves the flag values that need parsing and refuses the values
// and combinations the command does not run, before anything is built: a
// negative size or cadence (0 picks the default, and the report names the
// value in use), and a drift threshold the score in [0, 1] cannot exceed.
func (e *engine) check() (err error) {
	o := e.o
	if o.batch < 1 {
		return fmt.Errorf("-batch must be >= 1, got %d", o.batch)
	}
	for _, f := range []struct {
		name string
		v    int64
	}{
		{"-max-batch", int64(o.maxBatch)}, {"-queue-depth", int64(o.queueDepth)}, {"-lookahead", int64(o.lookahead)},
		{"-stale-threshold", int64(o.staleThr)}, {"-refresh-period", int64(o.period)},
		{"-drift-check-every", int64(o.checkEvery)}, {"-flight-depth", int64(o.flightDepth)}, {"-users", o.users},
	} {
		if f.v < 0 {
			return fmt.Errorf("%s must be >= 0, got %d", f.name, f.v)
		}
	}
	if !(o.driftThr >= 0 && o.driftThr < 1) {
		return fmt.Errorf("-drift-threshold must be in [0, 1), got %g: a drift score lies in [0, 1] and triggers above it", o.driftThr)
	}
	if e.post = strings.EqualFold(o.mode, "post"); !e.post {
		if e.mode, err = core.ParseRefreshMode(o.mode); err != nil {
			return err
		}
	}
	if o.openLoop && o.qps <= 0 {
		return fmt.Errorf("-open-loop needs -qps > 0, got %g", o.qps)
	}
	return nil
}

// build makes the -server platform, the -dataset at -scale and the hotness
// of 64 profiling batches of one iteration's worth of requests each; solves
// and fills the system; and starts everything a run serves with: workers,
// SIGQUIT handler, listener.
// When it fails part-way, stop ends what it had started.
func (e *engine) build() (err error) {
	o, w := e.o, e.w
	spec, err := workload.DLRSpecByName(o.dataset)
	if err != nil {
		return err
	}
	if e.p, err = platform.ByName(o.server); err != nil {
		return err
	}
	if e.ds, err = spec.Build(o.scale, o.seed); err != nil {
		return err
	}
	p, ds := e.p, e.ds
	fmt.Fprintf(w, "dataset %s at scale %g: %d tables, %d entries, %d B rows\n",
		spec.Name, o.scale, ds.KeysPerSample(), ds.NumEntries(), ds.MT.MaxEntryBytes())
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
		rec = append(rec, ds.GenBatch(r, o.batch*o.clients))
	}
	hot, err := workload.ProfileBatches(ds.NumEntries(), rec)
	if err != nil {
		return err
	}

	// One registry and flight recorder shared by the core (extraction tiers,
	// refresh) and the serving engine, so /metrics, the flight records, the
	// trace drawn from them and a bundle show the whole run.
	e.reg = telemetry.NewRegistry(p.N)
	e.fl = flight.NewRecorder(p.N, o.flightDepth)
	if e.post || e.mode != core.RefreshOff {
		e.sampler = cache.NewHotnessSampler(ds.NumEntries(), 1)
	}

	// The system is built in functional mode, so lookups return (and verify
	// against) real bytes.
	t0 := time.Now()
	e.sys, err = core.Build(core.Config{
		Platform:   p,
		Hotness:    hot,
		EntryBytes: ds.MT.MaxEntryBytes(),
		CacheRatio: o.ratio,
		Source:     ds.MT,
		Telemetry:  e.reg,
		Flight:     e.fl,
	})
	if err != nil {
		return err
	}
	if e.mode != core.RefreshOff {
		e.ctrl, err = core.NewController(e.sys, core.ControllerConfig{
			Mode:          e.mode,
			Sampler:       e.sampler,
			CheckEvery:    o.checkEvery,
			PeriodBatches: o.period,
			Drift:         cache.DriftConfig{Threshold: o.driftThr},
			Async:         true,
		})
		if err != nil {
			return err
		}
	}
	e.srv, err = serve.New(e.sys, serve.Config{
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
		return err
	}
	fmt.Fprintf(w, "built %s: cache ratio %g solved and filled in %.2fs\n", p.Name, o.ratio, time.Since(t0).Seconds())
	switch e.mode {
	case core.RefreshDrift:
		fmt.Fprintf(w, "refresh mode drift: top-1/16 overlap + rank distance, threshold %.2f\n", e.ctrl.Detector().Config().Threshold)
	case core.RefreshPeriodic:
		fmt.Fprintf(w, "refresh mode periodic: re-solve every %d batches\n", e.ctrl.Config().PeriodBatches)
	}
	if o.lookahead > 0 {
		fmt.Fprintf(w, "prefetch:          lookahead %d, staleness window %d batches, %d staged rows/GPU\n",
			o.lookahead, o.staleThr, e.srv.StagingArena(0).Capacity())
	}

	// Bundles are written on demand: SIGQUIT freezes the evidence without
	// killing the run (the Notify preempts Go's default stack dump and exit),
	// and so does POST /debug/flight/bundle.
	bundle := flight.BundleConfig{Dir: o.bundleDir, Recorder: e.fl, Registry: e.reg}
	fmt.Fprintf(w, "flight:            %d rings x %d records; bundles on SIGQUIT or POST /debug/flight/bundle -> %s\n",
		e.fl.Workers(), e.fl.Depth(), o.bundleDir)
	e.sigq = make(chan os.Signal, 1)
	signal.Notify(e.sigq, syscall.SIGQUIT)
	e.bg.Add(1)
	go func() {
		defer e.bg.Done()
		for range e.sigq {
			if path, err := bundle.TriggerBundle("sigquit"); err != nil {
				fmt.Fprintf(os.Stderr, "ugache-serve: flight bundle: %v\n", err)
			} else {
				fmt.Fprintf(w, "flight:            wrote diagnostic bundle %s\n", path)
			}
		}
	}()
	e.health.SetReady(true)

	if o.listen != "" {
		ln, err := net.Listen("tcp", o.listen)
		if err != nil {
			return fmt.Errorf("telemetry listener: %w", err)
		}
		e.http = &http.Server{Handler: telemetry.NewHandler(telemetry.HandlerConfig{
			Registry: e.reg, Flight: bundle, Health: e.health, EnablePprof: o.pprofOn})}
		e.bg.Add(1)
		go func() {
			defer e.bg.Done()
			if err := e.http.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintf(os.Stderr, "ugache-serve: telemetry server: %v\n", err)
			}
		}()
		fmt.Fprintf(w, "telemetry:         http://%s/metrics (also /debug/flight, /debug/timeline, /healthz, /readyz)\n", ln.Addr())
	}
	return nil
}

// stop is the quiet half of the shutdown, and all of it when build fails
// part-way: stop advertising readiness, drain the workers, and end the
// goroutines build started.
func (e *engine) stop() {
	e.health.SetReady(false)
	if e.srv != nil {
		e.srv.Close()
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
				cst.LastDrift.Score, cst.LastDrift.TopKOverlap, cst.LastDrift.RankDistance)
		}
		if last := cst.LastRefresh; last != nil {
			fmt.Fprintf(w, "incremental delta: last refresh moved %d entries (full rebuild: %d)\n",
				last.EvictedEntries+last.InsertedEntries, last.RebuildEntries)
		}
	}
	var errs []error
	if e.o.traceOut != "" {
		var spans int
		err := writeFile(e.o.traceOut, func(f io.Writer) (err error) {
			spans, err = flight.WriteTrace(f, e.fl)
			return err
		})
		if err == nil {
			fmt.Fprintf(w, "timeline:          %d spans -> %s (open in https://ui.perfetto.dev)\n", spans, e.o.traceOut)
		}
		errs = append(errs, err)
	}
	fmt.Fprintf(w, "flight:            %d records\n", e.fl.Recorded())
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
		case slices.Contains(snapshotTotals, s.Name) ||
			strings.HasPrefix(s.Name, "serve_queue_depth_peak") && s.Value > 0:
			fmt.Fprintf(w, "  %-42s %.0f\n", s.Name, s.Value)
		case strings.HasPrefix(s.Name, "sim_link_util_") && s.Value > 0:
			fmt.Fprintf(w, "  %-42s %.3f\n", s.Name, s.Value)
		}
	}
	return errors.Join(errs...)
}

// snapshotTotals are the cumulative totals the final telemetry snapshot
// prints, by exact name; every run registers each of them
// (TestSnapshotTotalsRegistered).
var snapshotTotals = []string{
	"serve_requests_total", "serve_batches_total", "serve_unique_keys_total",
	"cache_refresh_total", "core_extract_batches_total", "serve_rejected_total",
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

// closedLoop is the default load: each client issues its next request as
// soon as the previous one completes, round-robining the GPUs; then the
// summary, and under -refresh-mode post the one refresh.
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
			r := rng.New(o.seed).Split(fmt.Sprintf("client%d", c))
			// The peek stream is a same-seeded replica of r running L requests
			// ahead: announcing request i+L's exact keys before issuing request
			// i is the lookahead oracle the prefetch pipeline stages against.
			peekR := rng.New(o.seed).Split(fmt.Sprintf("client%d", c))
			announce := func(i int) {
				if o.lookahead > 0 && i < o.requests {
					e.srv.Prefetch((c+i)%p.N, e.ds.GenBatch(peekR, o.batch))
				}
			}
			for i := 0; i < o.lookahead; i++ {
				announce(i)
			}
			lats[c] = make([]float64, 0, o.requests)
			for i := 0; i < o.requests && ctx.Err() == nil; i++ {
				announce(i + o.lookahead)
				keys := e.ds.GenBatch(r, o.batch)
				reqStart := time.Now()
				res, err := e.srv.Lookup((c+i)%p.N, keys)
				if err != nil {
					errs[c] = fmt.Errorf("client %d: %w", c, err)
					return
				}
				lats[c] = append(lats[c], float64(time.Since(reqStart)))
				sims[c] += res.SimSeconds
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

	metric := e.reg.Value
	batches, requested, unique := metric("serve_batches_total"), metric("serve_requested_keys_total"), metric("serve_unique_keys_total")
	perBatch, simTotal := max(batches, 1), metric("serve_sim_seconds_total")
	all := slices.Concat(lats...)
	q := stats.Quantiles(all, 0.50, 0.99, 1)
	fmt.Fprintf(w, "\n%d clients x %d requests (%d samples each) in %.2fs\n", o.clients, o.requests, o.batch, wall)
	fmt.Fprintf(w, "throughput:        %.0f req/s, %.0f keys/s\n", float64(len(all))/wall, requested/wall)
	fmt.Fprintf(w, "latency:           p50 %v  p99 %v  max %v\n", time.Duration(q[0]), time.Duration(q[1]), time.Duration(q[2]))
	fmt.Fprintf(w, "coalescing:        %.0f batches, %.1f unique keys/batch (%.1f requested)\n",
		batches, unique/perBatch, requested/perBatch)
	fmt.Fprintf(w, "simulated extract: %.3f ms/batch mean, %.1f ms total per request stream\n",
		simTotal/perBatch*1e3, simSum/float64(max(o.clients, 1))*1e3)
	local, remote, host := metric("core_hit_local_keys_total"), metric("core_hit_remote_keys_total"), metric("core_hit_host_keys_total")
	if sum := local + remote + host; sum > 0 {
		fmt.Fprintf(w, "hit tiers:         %.1f%% local, %.1f%% remote, %.1f%% host (of %.0f unique keys)\n",
			100*local/sum, 100*remote/sum, 100*host/sum, unique)
	}
	if o.lookahead > 0 {
		for g := 0; g < p.N; g++ { // the last announced windows may still be staging
			e.srv.WaitPrefetch(g)
		}
		hits := metric("serve_fill_prefetch_hit")
		fmt.Fprintf(w, "prefetch:          %.0f windows staged %.0f keys; %.0f staged hits (%.1f%% of unique), %.0f dropped windows\n",
			metric("serve_prefetch_windows_total"), metric("serve_prefetch_staged_keys_total"),
			hits, 100*hits/max(unique, 1), metric("serve_prefetch_dropped_windows_total"))
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
	baseIter := simTotal / perBatch
	if baseIter <= 0 {
		baseIter = 1e-3
	}
	rep, err := e.sys.Refresh(measured, baseIter, cache.DefaultRefreshConfig())
	if err != nil {
		return fmt.Errorf("refresh: %w", err)
	}
	fmt.Fprintf(w, "refresh:           %d evicted, %d inserted in %.1fs simulated (%.1f%% mean impact)\n",
		rep.EvictedEntries, rep.InsertedEntries, rep.Duration, 100*rep.MeanImpact)
	fmt.Fprintf(w, "refresh solve:     %.3fs wall\n", rep.Solve.WallSeconds)
	return nil
}

// openLoop drives the one server with rate-scheduled arrivals: one poller
// offers every GPU its share of -qps whether or not the server keeps up,
// which is what exposes the admission knee — a closed loop slows its own
// offer the moment the server saturates. Sheds (ErrOverload) are reported,
// not treated as failures, and admitted requests are timed three ways (see
// the package comment), so the driver's delay is not mistaken for the server's.
func (e *engine) openLoop(ctx context.Context) error {
	o, w, srv := e.o, e.w, e.srv
	gens, err := e.streams(o.seed)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nopen loop:         poisson arrivals at %.0f qps offered for %v (%d users, %d keys/request)\n",
		o.qps, o.duration, gens[0].Users(), o.batch)
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
