package bench

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"ugache/internal/core"
	"ugache/internal/platform"
	"ugache/internal/rng"
	"ugache/internal/serve"
	"ugache/internal/stats"
	"ugache/internal/telemetry"
	"ugache/internal/workload"
)

func init() {
	register("serve", "open-loop overload sweep: latency vs offered load past saturation, knee and shed accounting", serveBench)
}

// ServeStepReport is one offered-load step of the open-loop sweep.
type ServeStepReport struct {
	// Multiplier is this step's offered load as a fraction of the
	// closed-loop calibrated capacity.
	Multiplier float64 `json:"multiplier"`
	// OfferedQPS is the intended open-loop arrival rate; ServedQPS is what
	// actually completed successfully.
	OfferedQPS float64 `json:"offered_qps"`
	ServedQPS  float64 `json:"served_qps"`
	Dispatched int64   `json:"dispatched"`
	Served     int64   `json:"served"`
	// Shed counts ErrOverload rejections (cross-checked against
	// serve_rejected_total in RejectedMetric).
	Shed           int64   `json:"shed"`
	RejectedMetric int64   `json:"serve_rejected_total"`
	ShedRate       float64 `json:"shed_rate"`
	// Latency percentiles of admitted requests in milliseconds, measured
	// from each request's intended arrival time (not its actual send), so
	// a lagging driver cannot hide queueing delay — the standard guard
	// against coordinated omission.
	P50Ms float64 `json:"p50_ms"`
	P99Ms float64 `json:"p99_ms"`
	// PeakQueueDepth is serve_queue_depth_peak at the end of the step.
	PeakQueueDepth float64 `json:"peak_queue_depth"`
}

// ServeReport is the serve experiment's machine-readable output
// (BENCH_serve.json).
type ServeReport struct {
	Server         string  `json:"server"`
	Entries        int64   `json:"entries"`
	GPUs           int     `json:"gpus"`
	KeysPerRequest int     `json:"keys_per_request"`
	MaxBatchKeys   int     `json:"max_batch_keys"`
	QueueDepth     int     `json:"queue_depth"`
	Arrivals       string  `json:"arrivals"`
	Users          int64   `json:"users"`
	WindowSeconds  float64 `json:"window_seconds"`
	// CalibratedQPS is the closed-loop saturation throughput; CapacityQPS is
	// what one open-loop probe at that rate actually served — the harness
	// shares CPU with the server, so on small machines it is lower. The
	// sweep multipliers anchor to CapacityQPS: the knee must be found
	// relative to what this host can really serve through this path.
	CalibratedQPS float64 `json:"calibrated_qps"`
	CapacityQPS   float64 `json:"capacity_qps"`
	// KneeQPS is the highest offered rate that was still served nearly in
	// full (served/offered >= 0.95) — the headline number.
	KneeQPS        float64           `json:"knee_qps"`
	KneeMultiplier float64           `json:"knee_multiplier"`
	Steps          []ServeStepReport `json:"steps"`
}

// serveScenario pins the serving-side shape of the overload sweep. The
// stream is routed to a deliberately small GPU subset with a small batch
// budget, so the saturation knee sits well below what the load driver can
// offer — the sweep must be able to drive past it.
type serveScenario struct {
	p              *platform.Platform
	n              int64
	gpus           int
	keysPerRequest int
	maxBatchKeys   int
	queueDepth     int
	keyAlpha       float64
	users          int64
	window         time.Duration
	calWindow      time.Duration
	sweep          []float64
	seed           uint64
}

func newServeScenario(o Options) *serveScenario {
	n := int64(100_000 * o.Scale)
	if n < 8192 {
		n = 8192
	}
	sc := &serveScenario{
		p:              platform.ServerA(),
		n:              n,
		gpus:           2,
		keysPerRequest: 8,
		maxBatchKeys:   64,
		queueDepth:     256,
		keyAlpha:       1.2,
		users:          1_000_000,
		window:         600 * time.Millisecond,
		calWindow:      400 * time.Millisecond,
		sweep:          []float64{0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 2.0},
		seed:           o.Seed,
	}
	if sc.gpus > sc.p.N {
		sc.gpus = sc.p.N
	}
	if o.Quick {
		sc.window = 120 * time.Millisecond
		sc.calWindow = 100 * time.Millisecond
		sc.sweep = []float64{0.5, 1.0, 2.0}
	}
	return sc
}

// hotness matches the generator's key popularity (key == Zipf rank), so the
// policy solver caches exactly what the open-loop stream will ask for.
func (sc *serveScenario) hotness() workload.Hotness {
	h := make(workload.Hotness, sc.n)
	for k := range h {
		h[k] = math.Pow(float64(k+1), -sc.keyAlpha)
	}
	return h
}

// newServeServer builds a fresh timing-mode system + serving engine with
// fast-fail admission for one step (fresh telemetry, so per-step counters
// start at zero).
func (sc *serveScenario) newServeServer(o Options) (*core.System, *serve.Server, *telemetry.Registry, error) {
	reg := telemetry.NewRegistry(sc.p.N)
	sys, err := core.Build(core.Config{
		Platform:   sc.p,
		Hotness:    sc.hotness(),
		EntryBytes: 64,
		CacheRatio: 0.1,
	})
	if err != nil {
		return nil, nil, nil, err
	}
	srv, err := serve.New(sys, serve.Config{
		MaxBatchKeys: sc.maxBatchKeys,
		QueueDepth:   sc.queueDepth,
		Telemetry:    reg,
		TraceDepth:   -1,
	})
	if err != nil {
		return nil, nil, nil, err
	}
	return sys, srv, reg, nil
}

// calibrate measures closed-loop throughput: saturating synchronous clients
// (bounded outstanding work, so the system is busy but never overloaded).
// The open-loop multipliers are anchored to this rate.
func (sc *serveScenario) calibrate(o Options) (float64, error) {
	_, srv, _, err := sc.newServeServer(o)
	if err != nil {
		return 0, err
	}
	defer srv.Close()
	z, err := workload.NewZipf(sc.n, sc.keyAlpha)
	if err != nil {
		return 0, err
	}
	const clientsPerGPU = 16
	var served atomic.Int64
	var errMu sync.Mutex
	var firstErr error
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clientsPerGPU*sc.gpus; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r := rng.New(sc.seed).Split(fmt.Sprintf("cal-%d", c))
			keys := make([]int64, sc.keysPerRequest)
			gpu := c % sc.gpus
			for time.Since(start) < sc.calWindow {
				for i := range keys {
					keys[i] = z.Sample(r)
				}
				if _, err := srv.Lookup(gpu, keys); err != nil {
					if !errors.Is(err, serve.ErrOverload) {
						errMu.Lock()
						if firstErr == nil {
							firstErr = err
						}
						errMu.Unlock()
						return
					}
					continue
				}
				served.Add(1)
			}
		}(c)
	}
	wg.Wait()
	if firstErr != nil {
		return 0, firstErr
	}
	if served.Load() == 0 {
		return 0, fmt.Errorf("bench: serve calibration completed no requests")
	}
	return float64(served.Load()) / sc.calWindow.Seconds(), nil
}

// pendingReq is one dispatched request a driver has not yet collected.
type pendingReq struct {
	ch       <-chan serve.Result
	intended time.Time
}

// serveDriver is one open-loop dispatcher's tally. Each driver pins one GPU
// and collects its own requests oldest-first: a single driver's requests
// complete in FIFO order on its GPU (ring order is preserved through batch
// formation), so polling only the head of the outstanding queue is enough —
// no goroutine per request, which would starve the very workers the sweep
// is trying to saturate.
type serveDriver struct {
	dispatched int64
	served     int64
	shed       int64
	lats       []float64
	err        error
}

// collect drains the driver's completed head requests. Blocking mode drains
// everything at end of window; non-blocking mode runs between dispatches,
// so completion timestamps lag true completion by at most one poll gap.
func (dr *serveDriver) collect(outstanding []pendingReq, block bool) []pendingReq {
	for len(outstanding) > 0 {
		head := outstanding[0]
		var res serve.Result
		if block {
			res = <-head.ch
		} else {
			select {
			case res = <-head.ch:
			default:
				return outstanding
			}
		}
		lat := time.Since(head.intended).Seconds()
		switch {
		case res.Err == nil:
			dr.served++
			dr.lats = append(dr.lats, lat)
		case errors.Is(res.Err, serve.ErrOverload):
			dr.shed++
		default:
			if dr.err == nil {
				dr.err = res.Err
			}
		}
		outstanding = outstanding[1:]
	}
	return outstanding
}

// runServeStep drives one open-loop window at the given offered rate and
// reports what came back. Several drivers (independent Poisson streams
// splitting the rate; their superposition is Poisson again) pace arrivals
// by intended time and never wait for completions — requests land on a
// saturated server exactly as fast as the rate says they should.
func (sc *serveScenario) runServeStep(o Options, mult, offeredQPS float64) (ServeStepReport, error) {
	rep := ServeStepReport{Multiplier: mult}
	_, srv, reg, err := sc.newServeServer(o)
	if err != nil {
		return rep, err
	}

	dispatchers := sc.gpus // one paced driver per GPU keeps harness CPU low
	drivers := make([]serveDriver, dispatchers)
	var wg sync.WaitGroup
	epoch := time.Now()
	for d := 0; d < dispatchers; d++ {
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			dr := &drivers[d]
			gen, err := workload.NewOpenLoop(workload.OpenLoopConfig{
				QPS:            offeredQPS / float64(dispatchers),
				Arrivals:       workload.Poisson,
				Users:          sc.users,
				KeysPerRequest: sc.keysPerRequest,
				NumKeys:        sc.n,
				KeyAlpha:       sc.keyAlpha,
			}, sc.seed+uint64(d)*7919+uint64(mult*1000))
			if err != nil {
				dr.err = err
				return
			}
			gpu := d % sc.gpus
			var req workload.OpenLoopRequest
			var outstanding []pendingReq
			for {
				gen.Next(&req)
				if req.At >= sc.window {
					break
				}
				intended := epoch.Add(req.At)
				if wait := time.Until(intended); wait > 0 {
					time.Sleep(wait)
				}
				keys := append([]int64(nil), req.Keys...)
				outstanding = append(outstanding, pendingReq{ch: srv.Handle(gpu, keys), intended: intended})
				dr.dispatched++
				outstanding = dr.collect(outstanding, false)
			}
			dr.collect(outstanding, true)
		}(d)
	}
	wg.Wait()
	elapsed := time.Since(epoch).Seconds()
	rep.PeakQueueDepth = metricValue(reg, "serve_queue_depth_peak")
	rep.RejectedMetric = int64(metricValue(reg, "serve_rejected_total"))
	srv.Close()

	var lats []float64
	for i := range drivers {
		dr := &drivers[i]
		if dr.err != nil {
			return rep, dr.err
		}
		rep.Dispatched += dr.dispatched
		rep.Served += dr.served
		rep.Shed += dr.shed
		lats = append(lats, dr.lats...)
	}
	rep.OfferedQPS = float64(rep.Dispatched) / sc.window.Seconds()
	rep.ServedQPS = float64(rep.Served) / elapsed
	if rep.Dispatched > 0 {
		rep.ShedRate = float64(rep.Shed) / float64(rep.Dispatched)
	}
	if len(lats) > 0 {
		q := stats.Quantiles(lats, 0.50, 0.99)
		rep.P50Ms, rep.P99Ms = q[0]*1e3, q[1]*1e3
	}
	return rep, nil
}

// saturated reports whether a step is clearly past the knee: offered
// meaningfully above served, with real sheds recorded.
func saturated(st ServeStepReport) bool {
	return st.OfferedQPS > st.ServedQPS*1.05 && st.Shed > 0
}

// serveBench is the open-loop overload sweep: calibrate capacity closed-loop,
// then offer Poisson arrivals at multiples of it — past the knee the server
// must shed (ErrOverload) rather than absorb, and the admitted tail must stay
// bounded by the queue, not grow with offered load. The knee (highest offered
// rate served nearly in full) is the headline.
func serveBench(o Options) (*Result, error) {
	sc := newServeScenario(o)
	calibrated, err := sc.calibrate(o)
	if err != nil {
		return nil, err
	}
	// One open-loop probe at the closed-loop rate anchors the multipliers to
	// the capacity of this host through the open-loop path itself.
	probe, err := sc.runServeStep(o, 1.0, calibrated)
	if err != nil {
		return nil, err
	}
	capacity := probe.ServedQPS
	if capacity <= 0 {
		return nil, fmt.Errorf("bench: open-loop probe served nothing at %.0f qps", calibrated)
	}
	report := &ServeReport{
		Server:         sc.p.Name,
		Entries:        sc.n,
		GPUs:           sc.gpus,
		KeysPerRequest: sc.keysPerRequest,
		MaxBatchKeys:   sc.maxBatchKeys,
		QueueDepth:     sc.queueDepth,
		Arrivals:       workload.Poisson.String(),
		Users:          sc.users,
		WindowSeconds:  sc.window.Seconds(),
		CalibratedQPS:  calibrated,
		CapacityQPS:    capacity,
	}
	for _, mult := range sc.sweep {
		st, err := sc.runServeStep(o, mult, mult*capacity)
		if err != nil {
			return nil, err
		}
		report.Steps = append(report.Steps, st)
	}
	// Escalate until the sweep is provably past saturation: the top step must
	// offer more than it serves and record sheds, or the curve has no
	// overload region to show.
	for extra := 0; extra < 5 && !saturated(report.Steps[len(report.Steps)-1]); extra++ {
		mult := report.Steps[len(report.Steps)-1].Multiplier * 2
		st, err := sc.runServeStep(o, mult, mult*capacity)
		if err != nil {
			return nil, err
		}
		report.Steps = append(report.Steps, st)
	}
	for _, st := range report.Steps {
		if st.OfferedQPS > 0 && st.ServedQPS >= 0.95*st.OfferedQPS {
			report.KneeQPS = st.OfferedQPS
			report.KneeMultiplier = st.Multiplier
		}
	}
	if report.KneeQPS == 0 {
		// No step served its full offer (tiny windows on a loaded host):
		// fall back to the served plateau as the capacity estimate.
		for _, st := range report.Steps {
			if st.ServedQPS > report.KneeQPS {
				report.KneeQPS = st.ServedQPS
				report.KneeMultiplier = st.Multiplier
			}
		}
	}

	t := stats.NewTable(
		fmt.Sprintf("Serve: open-loop %s overload sweep, %s (%d/%d GPUs), %d entries, capacity %.0f qps, knee %.0f qps",
			report.Arrivals, sc.p.Name, sc.gpus, sc.p.N, sc.n, capacity, report.KneeQPS),
		"offered(x)", "offered qps", "served qps", "shed", "shed%", "p50(ms)", "p99(ms)", "peak depth")
	for _, st := range report.Steps {
		t.AddRow(fmt.Sprintf("%.2f", st.Multiplier),
			fmt.Sprintf("%.0f", st.OfferedQPS),
			fmt.Sprintf("%.0f", st.ServedQPS),
			fmt.Sprintf("%d", st.Shed),
			fmtPct(st.ShedRate),
			fmt.Sprintf("%.3f", st.P50Ms),
			fmt.Sprintf("%.3f", st.P99Ms),
			fmt.Sprintf("%.0f", st.PeakQueueDepth))
	}
	text := t.String() +
		"\nOpen-loop arrivals keep offering load after the server saturates (a closed loop\n" +
		"cannot), so the curve shows the knee and what lies past it: served qps flattens\n" +
		"at capacity, the surplus is shed via ErrOverload (serve_rejected_total), and the\n" +
		"p99 of admitted requests stays bounded by the admission queue instead of growing\n" +
		"with offered load. Latency is measured from each request's intended arrival time\n" +
		"(coordinated-omission safe).\n"
	return &Result{Name: "serve", Text: text, JSON: report}, nil
}
