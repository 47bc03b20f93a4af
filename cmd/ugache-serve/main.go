// ugache-serve runs a closed-loop multi-client DLR inference workload
// against the concurrent serving engine: N client goroutines issue lookup
// requests for Zipf-drawn embedding keys, the per-GPU coalescer batches
// them into iteration-sized extractions, and the run reports throughput,
// request latency percentiles, and the simulated extraction times of the
// coalesced batches. With -nodes N the same clients run against N in-process
// nodes behind the consistent-hash router.
//
// With -open-loop the clients are replaced by one poller
// (workload.DriveOpenLoop) that offers every GPU its share of -qps: arrivals
// are scheduled by -qps alone (Poisson or bursty MMPP), never by completions,
// so the engine can be pushed past its admission knee, where a full queue
// sheds at once. The run reports sheds and three p50/p99 latencies of the
// admitted requests: lag (intended arrival to Handle), engine (enqueue to
// reply, serve_request_latency_seconds) and observed (intended arrival to the
// reply noticed), and how often falling over 25 ms behind (a machine stall)
// shifted the schedule. The placement is profiled from a stream of
// the same config, seeded apart.
//
// Usage:
//
//	ugache-serve -dataset SYN-A -clients 16 -requests 200
//	ugache-serve -dataset CR -scale 0.1 -ratio 0.08 -max-batch 4096
//	ugache-serve -refresh-mode post -trace-out trace.json   # Perfetto-loadable spans
//	ugache-serve -open-loop -qps 200000 -arrivals mmpp -duration 5s
//
// The command is a flag parser (parse) around one function, run (run.go).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ugache/internal/prof"
)

// options bundles the command's knobs (one field per flag; prof holds the
// six profiling flags).
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
	mode       string
	driftThr   float64
	checkEvery int
	period     int
	lookahead  int
	staleThr   int

	openLoop   bool
	qps        float64
	arrivals   string
	users      int64
	duration   time.Duration
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

	prof prof.Config
}

// parse reads the command line (without the program name) into options. A
// bad flag or -h comes back as the flag package's error, usage already
// printed to standard error.
func parse(args []string) (options, error) {
	var o options
	fs := flag.NewFlagSet("ugache-serve", flag.ContinueOnError)
	fs.StringVar(&o.dataset, "dataset", "SYN-A", "DLR dataset: CR, SYN-A or SYN-B")
	fs.StringVar(&o.server, "server", "C", "platform: A (4xV100), B (8xV100 DGX-1) or C (8xA100)")
	fs.Float64Var(&o.scale, "scale", 0.05, "dataset scale multiplier")
	fs.Float64Var(&o.ratio, "ratio", 0.10, "per-GPU cache ratio")
	fs.IntVar(&o.clients, "clients", 8, "concurrent closed-loop clients")
	fs.IntVar(&o.requests, "requests", 100, "requests per client")
	fs.IntVar(&o.batch, "batch", 16, "inference samples per request (under -open-loop: keys per request)")
	fs.IntVar(&o.maxBatch, "max-batch", 8192, "cap on one coalesced batch, in pending keys")
	fs.Uint64Var(&o.seed, "seed", 42, "random seed")
	fs.StringVar(&o.listen, "listen", "", "serve /metrics, /debug/trace, /debug/timeline, /healthz and /readyz on this address (e.g. :9090); keeps the process alive after the run until interrupted")
	fs.StringVar(&o.traceOut, "trace-out", "", "write the span timeline the flight recorder draws from its rings as Chrome trace-event JSON (Perfetto / chrome://tracing) to this file at exit")
	fs.StringVar(&o.mode, "refresh-mode", "off", "refresh policy: off, post (one refresh after the client loop), periodic (blind cadence) or drift (re-solve when measured hotness drifts)")
	fs.Float64Var(&o.driftThr, "drift-threshold", 0, "drift score above which a re-solve triggers (0 = detector default 0.3)")
	fs.IntVar(&o.checkEvery, "drift-check-every", 0, "batches between drift checks (0 = controller default 32)")
	fs.IntVar(&o.period, "refresh-period", 0, "batches between periodic-mode re-solves (0 = controller default 512)")
	fs.IntVar(&o.lookahead, "lookahead", 0, "lookahead prefetch depth L: clients announce request i+L before issuing request i (0 disables the prefetch pipeline)")
	fs.IntVar(&o.staleThr, "stale-threshold", 0, "bounded-staleness window S in batches: staged rows from an outgoing placement snapshot stay servable up to S batches past their commit (0 = staged rows die with their snapshot)")
	fs.BoolVar(&o.openLoop, "open-loop", false, "replace the closed-loop clients with one open-loop poller that offers load at -qps regardless of completions and reports lag (intended arrival -> Handle), engine (enqueue -> reply) and observed (intended arrival -> reply) latency")
	fs.Float64Var(&o.qps, "qps", 50_000, "open-loop offered request rate across all GPUs")
	fs.StringVar(&o.arrivals, "arrivals", "poisson", "open-loop arrival process: poisson or mmpp (bursty)")
	fs.Int64Var(&o.users, "users", 1_000_000, "open-loop simulated user population (per-user key affinity is hash-derived, so millions cost nothing)")
	fs.DurationVar(&o.duration, "duration", 2*time.Second, "open-loop run length")
	fs.IntVar(&o.queueDepth, "queue-depth", 0, "per-GPU admission queue depth; a request that finds it full is shed with ErrOverload (0 = engine default 256)")
	fs.BoolVar(&o.flight, "flight", true, "run the flight recorder with its SLO watchdog and diagnostic bundles (-trace-out runs the recorder alone: it draws the whole trace, and /debug/timeline, from its rings; the per-batch records behind /debug/trace are kept either way, 256 deep per worker without either)")
	fs.IntVar(&o.flightDepth, "flight-depth", 4096, "per-worker record ring depth in batches: how far back /debug/trace, the flight JSONL and the timeline's batch trees reach")
	fs.Float64Var(&o.sloP99Ms, "slo-p99-ms", 0, "admitted-request p99 SLO in milliseconds; > 0 arms the watchdog (p99, shed ratio, queue saturation, solve wall, prefetch drops) to write a diagnostic bundle on violation")
	fs.StringVar(&o.bundleDir, "bundle-dir", "ugache-bundles", "directory diagnostic bundles are written under (watchdog trips, SIGQUIT, POST /debug/flight/bundle)")
	fs.StringVar(&o.metricsOut, "metrics-out", "", "write the final telemetry snapshot as JSON to this file at exit")
	fs.BoolVar(&o.pprofOn, "pprof", false, "expose net/http/pprof under /debug/pprof/ on the -listen address")
	fs.IntVar(&o.nodes, "nodes", 1, "cluster mode: run N in-process nodes behind the consistent-hash router (closed-loop only)")
	fs.Float64Var(&o.netBW, "net-bw", 25e9, "cluster inter-machine link bandwidth in bytes/s")
	fs.DurationVar(&o.netLatency, "net-latency", 10*time.Microsecond, "cluster inter-machine one-way latency")
	fs.StringVar(&o.prof.CPUProfile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&o.prof.MemProfile, "memprofile", "", "write a heap profile to this file at exit")
	fs.StringVar(&o.prof.BlockProfile, "blockprofile", "", "write a goroutine blocking profile to this file at exit")
	fs.StringVar(&o.prof.MutexProfile, "mutexprofile", "", "write a mutex contention profile to this file at exit")
	fs.IntVar(&o.prof.BlockProfileRate, "block-profile-rate", 0, "runtime block profile rate in ns per sampled event (0 off; 1 samples every block)")
	fs.IntVar(&o.prof.MutexProfileFraction, "mutex-profile-fraction", 0, "runtime mutex profile fraction (sample 1/n contended events; 0 off)")
	return o, fs.Parse(args)
}

func main() {
	o, err := parse(os.Args[1:])
	if errors.Is(err, flag.ErrHelp) {
		os.Exit(0)
	}
	if err != nil {
		os.Exit(2) // the flag set has said what was wrong
	}
	stopProf, err := prof.StartWith(o.prof)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ugache-serve: %v\n", err)
		os.Exit(1)
	}
	// SIGINT/SIGTERM cancel the run: it stops where it is, shuts down as a
	// completed run does and exits 0.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err = run(ctx, o, os.Stdout)
	stop()
	if perr := stopProf(); err == nil {
		err = perr
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "ugache-serve: %v\n", err)
		os.Exit(1)
	}
}
