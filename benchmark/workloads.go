package main

import (
	"fmt"
	"sync"
	"time"

	"ugache/internal/cache"
	"ugache/internal/core"
	"ugache/internal/extract"
	"ugache/internal/platform"
	"ugache/internal/rng"
	"ugache/internal/serve"
	"ugache/internal/solver"
	"ugache/internal/telemetry"
	"ugache/internal/workload"
)

// options are one run's command-line settings.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	short    bool // test-sized tables and a single set-up (harness_test.go)
}

const (
	numWindows   = 5
	requestSLOMs = 10 // slo_attain: a request answered correctly within this

	steadyQPSPerGPU  = 3000 // x GPUs 0 and 1 = 6000 req/s
	steadyKeys       = 26   // Criteo's sparse features
	saturateDepth    = 192  // x64 keys = 12288 pending keys >= MaxBatchKeys, < QueueDepth requests
	saturateKeys     = 64
	saturateLatEvery = 8 // of ~3 million latencies a run, every eighth is kept
	driftQPS         = 2000
	driftKeys        = 64
	driftLookahead   = 2 // serve.Config.Lookahead, and how far ahead the client announces
	driftRefreshes   = 8
	scatterKeys      = 64
	poolSize         = 8192 // key sets a closed-loop client cycles through

	trainSamplesPerGPU      = 2048
	shortTrainSamplesPerGPU = 256
	trainPool               = 32
	shortTrainPool          = 9 // one replay batch per layer set
)

// clock splits -seconds into five equal windows after a warm-up of a tenth.
func (o *options) clock() *runClock {
	total := time.Duration(o.seconds * float64(time.Second))
	return &runClock{warm: total / 10, window: total / numWindows, windows: numWindows}
}

// driveOpts picks what the drivers verify and trace: an untraced run
// byte-compares a seeded one reply in sixteen and records no spans, a traced
// run compares every reply and records spans for one operation in spanEvery.
func (o *options) driveOpts(spanEvery int) *driveOpts {
	if o.trace {
		return &driveOpts{verifyEvery: 1, spanEvery: spanEvery}
	}
	return &driveOpts{verifyEvery: 16, verifyPhase: int(o.seed % 16)}
}

// workloadSpec is what distinguishes the five workloads before they run.
type workloadSpec struct {
	why string
	// headline is the workload's first listed end-to-end metric after the
	// set-up time: what harness.trace_overhead prices tracing in.
	headline string
	setup    func(o *options) (*built, error)
}

var specs = map[string]workloadSpec{
	serveSteady: {
		why:      "online DLR inference below the knee: open-loop Poisson, 6000 req/s x 26 keys; every flush is timer-driven, so coalesce wait and hand-off do the work",
		headline: "p50_ms",
		setup: func(o *options) (*built, error) {
			return commonSetup(o, platform.ServerA(), commonAlpha, commonRatio, serve.Config{})
		},
	},
	serveSaturate: {
		why:      "the same server at capacity: closed loop, 2 x 192 requests x 64 keys in flight; every batch fills, so dedup, extraction, gather and fan-out do the work",
		headline: "goodput_qps",
		setup: func(o *options) (*built, error) {
			return commonSetup(o, platform.ServerA(), commonAlpha, commonRatio, serve.Config{})
		},
	},
	trainExtract: {
		why:      "the paper's primary case, no serving layer: 8xA100, Criteo-like tables, one simulated extraction plus a functional gather on all GPUs per iteration",
		headline: "host_iters_per_s",
		setup:    trainSetup,
	},
	refreshDrift: {
		why:      "writes beside reads: lookahead-2 prefetching server at 2000 req/s x 64 keys while the placement is re-solved and swapped back and forth between two hotness vectors",
		headline: "p50_ms",
		setup: func(o *options) (*built, error) {
			return commonSetup(o, platform.ServerA(), commonAlpha, commonRatio, serve.Config{Lookahead: driftLookahead, StaleBatches: 16})
		},
	},
	clusterScatter: {
		why:      "the real router: 2 nodes behind cluster.Front, synchronous 64-key lookups of which a tenth or more cross nodes; the slowest leg sets each result",
		headline: "p50_ms",
		setup:    clusterSetup,
	},
}

// runWorkload runs one workload once, traced or not, and returns its report
// and — for a traced run — the recorded spans.
func runWorkload(o *options) (*workloadReport, []span, error) {
	spec, ok := specs[o.workload]
	if !ok {
		return nil, nil, fmt.Errorf("unknown workload %q (have %v)", o.workload, workloadNames)
	}
	rep := newWorkloadReport(o, spec.why)
	if o.seconds != calibratedSeconds && !o.short {
		rep.invalid("measured %g s, not the %d s the bounds are sized at", o.seconds, calibratedSeconds)
	}
	if rep.Env.GOMAXPROCS < 2 {
		rep.invalid("GOMAXPROCS = %d; the drivers and the server need two processors", rep.Env.GOMAXPROCS)
	}
	setups := 3
	if o.trace || o.short {
		setups = 1
	}
	b, setupSecs, err := measureSetup(setups, func() (*built, error) { return spec.setup(o) })
	if err != nil {
		return nil, nil, fmt.Errorf("set-up: %w", err)
	}
	defer b.close()
	rep.setWindowed("setup_s", setupSecs)

	var m *measured
	if o.workload == trainExtract {
		m, err = runTraining(o, rep, b)
	} else {
		m, err = runRequests(o, rep, b)
	}
	if err != nil {
		return nil, nil, err
	}
	m.report(o, rep)
	var spans []span
	if o.trace {
		spans, err = traceLayers(o, rep, b, m)
		if err != nil {
			return nil, nil, err
		}
	}
	// The widest max/min across the five windows of any wall-clock end-to-end
	// metric (set-up's three builds are not windows).
	worst := 0.0
	for _, v := range rep.Metrics {
		if def := metricByName(v.Name); v.Min != nil && def.EndToEnd && def.Clock == "wall" && v.Name != "setup_s" {
			worst = max(worst, windowed{Min: *v.Min, Max: *v.Max}.spread())
		}
	}
	rep.set("harness.window_spread", worst)
	rep.set("peak_rss_mb", peakRSSMB())
	return rep, spans, nil
}

// measured is what the timed part of a run hands to the reporting code.
type measured struct {
	ck       *runClock
	stats    []windowStats
	whole    tally
	genNs    float64
	bounds   *boundarySamples // nil on train-extract
	spans    []span
	admitNs  []float64
	iters    []iteration     // train-extract
	drawKey  func() int64    // draws one key from the workload's distribution, for the replay
	refresh  []refreshRecord // refresh-drift
	tail     *interval       // refresh-drift: from the last refresh to the end
	simMs    []float64       // train-extract: per pooled iteration
	hitRatio float64         // train-extract
	speedup  float64         // train-extract
	badRows  int64           // train-extract: mismatched rows
	rows     int64           // train-extract: rows compared
}

// report turns the window statistics into the end-to-end metrics.
func (m *measured) report(o *options, rep *workloadReport) {
	var p50, p99, goodput, slo, lag []float64
	var total tally
	minSamples, p50Beyond, p99Beyond := -1, 0, 0
	for w := range m.stats {
		s := &m.stats[w]
		p50 = append(p50, s.p50Ms)
		p99 = append(p99, s.p99Ms)
		goodput = append(goodput, float64(s.ok)/m.ck.window.Seconds())
		slo = append(slo, ratio(float64(s.withinSLO), float64(s.sent)))
		lag = append(lag, s.lagP99Ms)
		total.merge(&s.tally)
		if n := len(s.latsMs); minSamples < 0 || n < minSamples {
			minSamples, p50Beyond, p99Beyond = n, s.p50Beyond, s.p99Beyond
		}
		if s.lagP99Ms > 1 {
			rep.invalid("window %d: generator lag p99 %.3f ms > 1 ms", w, s.lagP99Ms)
		}
	}
	rep.Counts = counts{Sent: total.sent, Served: total.ok + total.mismatched, Shed: total.shed,
		Failed: total.failed, Mismatched: total.mismatched, Verified: total.verified}
	if total.sent != total.ok+total.bad() {
		rep.problem("sent %d != served %d + shed %d + failed %d", total.sent, total.ok+total.mismatched, total.shed, total.failed)
	}
	if total.bad() > 0 {
		rep.problem("%d shed, %d failed, %d byte-mismatched of %d sent", total.shed, total.failed, total.mismatched, total.sent)
	}
	if total.verified == 0 {
		rep.problem("no reply was verified")
	}

	v := rep.setWindowed("p50_ms", p50)
	v.Samples, v.Beyond = minSamples, p50Beyond
	rep.setWindowed("goodput_qps", goodput)
	if metricByName("slo_attain").on(o.workload) {
		rep.setWindowed("slo_attain", slo)
	}
	if metricByName("p99_ms").on(o.workload) {
		v := rep.setWindowed("p99_ms", p99)
		v.Samples, v.Beyond = minSamples, p99Beyond
	}
	if m.rows > 0 {
		rep.set("fail_ratio", ratio(float64(m.badRows), float64(m.rows)))
	} else {
		rep.set("fail_ratio", ratio(float64(total.bad()), float64(total.sent)))
	}
	switch {
	case m.simMs != nil:
		rep.set("sim_extract_ms", ratio(sum(m.simMs), float64(len(m.simMs))))
		rep.set("gpu_hit_ratio", m.hitRatio)
		rep.set("sim_speedup_vs_baseline", m.speedup)
		rep.setWindowed("host_iters_per_s", goodput)
	case m.tail != nil:
		rep.set("sim_extract_ms", m.tail.simExtractMs())
		rep.set("gpu_hit_ratio", m.tail.gpuHitRatio())
	default:
		var simMs, hit []float64
		for w := range m.stats {
			if s := &m.stats[w]; s.simSec > 0 {
				// cluster-scatter: a lookup's modelled time is its slowest leg
				// (cluster.Result.SimSeconds), not any one node's batch.
				simMs = append(simMs, 1e3*ratio(s.simSec, float64(s.ok+s.mismatched)))
			} else {
				simMs = append(simMs, m.bounds.window(w).simExtractMs())
			}
			hit = append(hit, m.bounds.window(w).gpuHitRatio())
		}
		rep.setWindowed("sim_extract_ms", simMs)
		rep.setWindowed("gpu_hit_ratio", hit)
	}
	if len(m.refresh) > 0 {
		var wall []float64
		for _, r := range m.refresh {
			wall = append(wall, r.wall.Seconds())
		}
		rep.setWindowed("refresh_s", wall)
		rep.Refreshes = len(m.refresh)
		if len(m.refresh) < driftRefreshes {
			rep.invalid("%d refreshes fitted, not %d: the machine ran them slowly", len(m.refresh), driftRefreshes)
		}
	}
	if o.trace {
		rep.set("workload.gen_ns_per_req", m.genNs)
		if metricByName("workload.lag_p99_ms").on(o.workload) {
			rep.setWindowed("workload.lag_p99_ms", lag)
		}
	}
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// refreshRecord is one System.Refresh as the control goroutine saw it.
type refreshRecord struct {
	start, wall, solve time.Duration
	moved              int64
}

// runRequests is the timed part of the four request-serving workloads:
// generate the inputs, start the drivers, sample the counters at the window
// boundaries, and check the harness's counts against the program's.
func runRequests(o *options, rep *workloadReport, b *built) (*measured, error) {
	ck := o.clock()
	m := &measured{ck: ck}
	opts := o.driveOpts(64)
	seedRand := rng.New(o.seed)
	drivers := []*driverResult{newDriverResult(ck, 1), newDriverResult(ck, 2)}
	var start []func()
	var localLegs [2]int64
	var refreshErr error
	var genNs []float64
	replayRand := seedRand.Split("replay")
	m.drawKey = func() int64 { return b.ks.sample(replayRand) }

	switch o.workload {
	case serveSteady:
		drivers = drivers[:1]
		var streams [][]request
		for gpu := 0; gpu < 2; gpu++ {
			reqs, ns := genOpenLoop(b.ks, seedRand.Split(fmt.Sprintf("driver-%d", gpu)), gpu, steadyQPSPerGPU, steadyKeys, 0, ck.end())
			genNs = append(genNs, ns)
			streams = append(streams, reqs)
		}
		reqs := mergeByArrival(streams...)
		start = append(start, func() { openLoopDriver(b.srv, reqs, ck, newVerifier(b), opts, drivers[0]) })
	case serveSaturate:
		opts.latEvery = saturateLatEvery
		for d := range drivers {
			pool, ns := genPool(b.ks, seedRand.Split(fmt.Sprintf("driver-%d", d)), poolSize, saturateKeys)
			genNs = append(genNs, ns)
			start = append(start, func() { closedLoopDriver(b.srv, d, pool, saturateDepth, ck, newVerifier(b), opts, drivers[d]) })
		}
	case refreshDrift:
		drivers = drivers[:1]
		reqs, ns := genOpenLoop(b.ks, seedRand.Split("driver-0"), 0, driftQPS, driftKeys, driftLookahead, ck.end())
		genNs = append(genNs, ns)
		start = append(start, func() { openLoopDriver(b.srv, reqs, ck, newVerifier(b), opts, drivers[0]) })
		hot := [2]workload.Hotness{b.ks.hotness(hotnessBatchKeys, b.ks.n/2), b.hot}
		start = append(start, func() { m.refresh, m.tail, refreshErr = refreshLoop(b, ck, hot) })
	case clusterScatter:
		for d := range drivers {
			pool, ns := genPool(b.ks, seedRand.Split(fmt.Sprintf("driver-%d", d)), poolSize/2, scatterKeys)
			genNs = append(genNs, ns)
			start = append(start, func() {
				localLegs[d] = clusterClient(b.front, d, b.p.N, pool, ck, newVerifier(b), opts, drivers[d])
			})
		}
	}
	m.genNs = median(genNs)

	before := takeSnapshot(b.reg)
	ck.start()
	var wg sync.WaitGroup
	for _, fn := range start {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn()
		}()
	}
	m.bounds = sampleBoundaries(b.reg, ck, o.trace)
	wg.Wait()
	run := interval{before, takeSnapshot(b.reg)}
	if m.tail != nil {
		m.tail.to = m.bounds.snaps[ck.windows]
	}

	m.stats, m.whole = mergeWindows(ck, drivers)
	late := 0
	for _, dr := range drivers {
		if dr.err != nil {
			rep.problem("driver error: %v", dr.err)
		}
		if dr.stalls > 0 {
			rep.invalid("the generator was stopped for more than %v %d times; the schedule was shifted by the time lost", generatorStall, dr.stalls)
		}
		late += dr.late
		m.spans = append(m.spans, dr.spans.spans...)
		m.admitNs = append(m.admitNs, dr.admitNs...)
	}
	if late > 0 {
		rep.invalid("%d lookups took longer than the router's default %v deadline and would have been partial there", late, shippedDeadline)
	}
	crossCheck(rep, run, &m.whole, localLegs[0]+localLegs[1], b.front != nil)
	if refreshErr != nil {
		rep.problem("refresh: %v", refreshErr)
	}
	return m, nil
}

// crossCheck holds the harness's own counts against the program's counters
// over the whole run, warm-up included.
func crossCheck(rep *workloadReport, run interval, whole *tally, localLegs int64, clustered bool) {
	expect := func(name string, got float64, want int64) {
		if int64(got) != want {
			rep.problem("%s moved by %d, the harness counted %d", name, int64(got), want)
		}
	}
	if !clustered {
		expect("serve_requests_total", run.delta("serve_requests_total"), whole.ok+whole.mismatched)
		expect("serve_rejected_total", run.delta("serve_rejected_total"), whole.shed)
		return
	}
	expect("cluster_lookups_total", run.delta("cluster_lookups_total"), whole.sent)
	expect("cluster_partial_lookups_total", run.delta("cluster_partial_lookups_total"), whole.partial)
	// Every Handle the router made — one per local leg, one per dispatch —
	// was either served or shed by a node's server.
	expect("serve_requests_total + serve_rejected_total",
		run.delta("serve_requests_total")+run.delta("serve_rejected_total"),
		localLegs+int64(run.delta("cluster_dispatches_total")))
}

// refreshLoop is refresh-drift's control goroutine: driftRefreshes calls of
// System.Refresh in pairs — to the drifted hotness, then back to the base, so
// the run ends on the placement it started with — one every tenth of the
// measured time (1.5 s of 15), which leaves the last window to undisturbed
// serving. A pair that, at the slowest refresh seen so far, would not leave a
// refresh period before the end is not started; the run then has fewer
// refreshes and says so. It returns each refresh's timings and the counters
// right after the last one.
func refreshLoop(b *built, ck *runClock, hot [2]workload.Hotness) ([]refreshRecord, *interval, error) {
	period := (ck.end() - ck.warm) / 10
	base := maxOf(b.sys.EstimatedTimes())
	if base <= 0 {
		base = 1e-3
	}
	var recs []refreshRecord
	slowest := period
	for k := 0; k < driftRefreshes; k += 2 {
		pairStart := max(ck.since(), ck.warm+time.Duration(k)*period)
		if k > 0 && pairStart+2*slowest+period > ck.end() {
			break
		}
		for i := 0; i < 2; i++ {
			time.Sleep(ck.warm + time.Duration(k+i)*period - ck.since())
			start := ck.since()
			r, err := b.sys.Refresh(hot[i], base, cache.DefaultRefreshConfig())
			if err != nil {
				return recs, nil, err
			}
			rec := refreshRecord{
				start: start, wall: ck.since() - start,
				solve: time.Duration(r.Solve.WallSeconds * float64(time.Second)),
				moved: r.EvictedEntries + r.InsertedEntries,
			}
			recs = append(recs, rec)
			slowest = max(slowest, rec.wall)
		}
	}
	return recs, &interval{from: takeSnapshot(b.reg)}, nil
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}

// runTraining is train-extract's timed part. One goroutine runs pooled
// iterations back to back: a simulated extraction of all eight GPUs' keys,
// then a functional gather on each GPU. Rows are byte-compared after the
// iteration's clock stops, so verification is not part of its time.
func runTraining(o *options, rep *workloadReport, b *built) (*measured, error) {
	ck := o.clock()
	m := &measured{ck: ck}
	pool, samples := trainPool, trainSamplesPerGPU
	if o.short {
		pool, samples = shortTrainPool, shortTrainSamplesPerGPU
	}
	m.iters, m.genNs = genIterations(b.ds, rng.New(o.seed).Split("train-iterations"), pool, b.p.N, samples)
	opts := o.driveOpts(1)

	sc := core.NewScratch()
	out := make([][]byte, b.p.N)
	for _, it := range m.iters {
		for g, keys := range it.batch.Keys {
			if need := len(keys) * b.entryBytes; need > len(out[g]) {
				out[g] = make([]byte, need)
			}
		}
	}

	// The sim-clock metrics come from one pass over the pool, so they do
	// not depend on how many iterations the wall clock lets the windows run.
	var gpuBytes, allBytes float64
	for i := range m.iters {
		res, err := b.sys.ExtractBatchWith(&m.iters[i].batch, sc)
		if err != nil {
			return nil, err
		}
		m.simMs = append(m.simMs, res.Time*1e3)
		for _, row := range res.SrcBytes {
			for j, bytes := range row {
				allBytes += bytes
				if j < b.p.N {
					gpuBytes += bytes
				}
			}
		}
	}
	m.hitRatio = ratio(gpuBytes, allBytes)
	var err error
	if m.speedup, err = speedupVsBaselines(b, m.iters, sum(m.simMs)/float64(len(m.simMs))); err != nil {
		return nil, err
	}

	dr := newDriverResult(ck, 1)
	v := newVerifier(b)
	ck.start()
	for i := 0; ck.since() < ck.end(); i++ {
		it := &m.iters[i%len(m.iters)]
		start := ck.since()
		_, err := b.sys.ExtractBatchWith(&it.batch, sc)
		for g := 0; g < b.p.N && err == nil; g++ {
			err = b.sys.LookupWith(g, it.batch.Keys[g], out[g], sc)
		}
		now := ck.since()
		bad := 0
		if err == nil {
			// Every verifyEvery-th row, starting at a row the seed picks.
			for g, keys := range it.batch.Keys {
				for r := (opts.verifyPhase + i) % opts.verifyEvery; r < len(keys); r += opts.verifyEvery {
					m.rows++
					bad += v.badRows(keys[r:r+1], out[g][r*b.entryBytes:(r+1)*b.entryBytes])
				}
			}
			m.badRows += int64(bad)
		}
		dr.settle(ck.windowOf(now), ms(now-start), err, err == nil, bad, opts)
		if opts.spanEvery > 0 {
			dr.spans.add("iteration", 0, int64(i), start, now)
		}
	}
	if dr.err != nil {
		rep.problem("iteration error: %v", dr.err)
	}
	m.stats, m.whole = mergeWindows(ck, []*driverResult{dr})
	m.spans = dr.spans.spans
	return m, nil
}

// speedupVsBaselines runs the pooled iterations, timing only, under the
// replication, partition and clique-partition placements (same platform,
// capacity and factored mechanism) and returns the best baseline's mean
// simulated extraction time over UGache's.
func speedupVsBaselines(b *built, iters []iteration, ugacheMs float64) (float64, error) {
	in := b.solverInput()
	esc := extract.NewScratch()
	best := 0.0
	for _, pol := range []solver.Policy{solver.Replication{}, solver.Partition{}, solver.CliquePartition{}} {
		pl, err := pol.Solve(in)
		if err != nil {
			return 0, fmt.Errorf("baseline %s: %w", pol.Name(), err)
		}
		ex, err := extract.New(b.p, pl)
		if err != nil {
			return 0, err
		}
		total := 0.0
		for i := range iters {
			res, err := ex.RunWith(extract.Factored, &iters[i].batch, esc)
			if err != nil {
				return 0, fmt.Errorf("baseline %s: %w", pol.Name(), err)
			}
			total += res.Time * 1e3
		}
		if mean := total / float64(len(iters)); best == 0 || mean < best {
			best = mean
		}
	}
	return ratio(best, ugacheMs), nil
}

// histogramP50Ms reads a latency histogram's median from the registry.
func histogramP50Ms(reg *telemetry.Registry, name string) float64 {
	if h, ok := reg.Find(name).(*telemetry.Histogram); ok {
		return h.Quantile(0.5) * 1e3
	}
	return 0
}
