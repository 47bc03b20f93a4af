// Package bench regenerates every table and figure of the paper's
// evaluation (§8) on the simulated platforms. Each experiment is a function
// from Options to a rendered Result; the cmd/ugache-bench binary and the
// root bench_test.go both dispatch through the Registry.
//
// Absolute numbers differ from the paper (the substrate is a simulator and
// the datasets are 1/100-scale stand-ins); the reproduced quantity is the
// shape: which system wins, by roughly what factor, and where crossovers
// fall. EXPERIMENTS.md records paper-vs-measured for every experiment.
package bench

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"ugache/internal/flight"
	"ugache/internal/platform"
	"ugache/internal/telemetry"
)

// Options tunes an experiment run.
type Options struct {
	// Scale multiplies the stock datasets (which are already 1/100 of the
	// paper's). 1.0 regenerates the full stand-ins; tests use ~0.05.
	Scale float64
	// Iters is the measured iterations per configuration (default 3, as in
	// the paper's three-run averages).
	Iters int
	// Seed feeds all generators.
	Seed uint64
	// Quick trims the configuration matrix for fast runs.
	Quick bool
	// Workers bounds the pool that computes a figure's configurations
	// concurrently: 0 uses one worker per CPU, 1 computes each report as
	// the render reaches it. Output is byte-identical regardless of the
	// setting.
	Workers int
	// Telemetry, when non-nil, is threaded into the core systems an
	// experiment builds so the caller can render the accumulated samples
	// after the run. Nil (the default) leaves instrumentation disabled.
	Telemetry *telemetry.Registry
	// Lookahead, when positive, narrows the prefetch experiment's sweep to
	// {0, Lookahead} instead of the default {0, 2, 8} (cmd/ugache-bench
	// -lookahead).
	Lookahead int
	// StaleBatches is the bounded-staleness window S the prefetch
	// experiment serves under (0 = the experiment default of 16;
	// cmd/ugache-bench -stale-threshold).
	StaleBatches int

	// plan, when non-nil, marks a planning pass (see matrix).
	plan *plan
	// flights, when non-nil, collects the flight recorders a Run makes
	// (Result.Flight). The experiments that make one make them in turn.
	flights *[]*flight.Recorder
}

func (o Options) normalize() Options {
	if o.Scale <= 0 {
		o.Scale = 1
	}
	if o.Iters <= 0 {
		o.Iters = 3
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
	return o
}

// flight returns a flight recorder of workers rings depth deep, noted in
// the run's Result.Flight.
func (o Options) flight(workers, depth int) *flight.Recorder {
	fl := flight.NewRecorder(workers, depth)
	if o.flights != nil {
		*o.flights = append(*o.flights, fl)
	}
	return fl
}

// memScale converts the dataset scale into the memory-model scale: stock
// datasets are 1/100 of the paper's, so GPU memory scales by Scale/100.
func (o Options) memScale() float64 {
	return 0.01 * o.Scale
}

// Result is one experiment's rendered output.
type Result struct {
	Name string
	Text string
	// JSON, when non-nil, is a machine-readable report of the same run
	// (cmd/ugache-bench -json-out marshals it; BENCH_drift.json is one).
	JSON any
	// Flight holds the flight recorders the run handed its core systems and
	// serving engines, in the order it made them: their refreshes, solves,
	// drift checks, prefetch windows and batches, which flight.Draw draws
	// (cmd/ugache-bench -timeline).
	Flight []*flight.Recorder
}

// Experiment is a registry entry.
type Experiment struct {
	Name  string
	Brief string
	Run   func(Options) (*Result, error)
}

// Registry maps experiment names (table1, fig2, ...) to runners; Names
// returns them sorted.
var Registry = map[string]Experiment{}

func register(name, brief string, run func(Options) (*Result, error)) {
	Registry[name] = Experiment{Name: name, Brief: brief, Run: run}
}

// Names lists registered experiments sorted by name.
func Names() []string {
	out := make([]string, 0, len(Registry))
	for n := range Registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// ResetCaches clears the dataset and report memoization. Benchmarks call
// it between iterations so repeat runs measure the real pipeline rather
// than cache hits.
func ResetCaches() {
	datasetMu.Lock()
	datasets = map[string]any{}
	datasetMu.Unlock()
	resetReportCache()
}

// Run executes one experiment by name.
func Run(name string, opt Options) (*Result, error) {
	exp, ok := Registry[name]
	if !ok {
		return nil, fmt.Errorf("bench: unknown experiment %q (have: %s)", name, strings.Join(Names(), ", "))
	}
	var recs []*flight.Recorder
	opt.flights = &recs
	res, err := exp.Run(opt.normalize())
	if res != nil {
		res.Flight = recs
	}
	return res, err
}

// serverSet returns the evaluation platforms, trimmed under Quick.
func serverSet(o Options) []*platform.Platform {
	if o.Quick {
		return []*platform.Platform{platform.ServerC()}
	}
	return []*platform.Platform{platform.ServerA(), platform.ServerB(), platform.ServerC()}
}

// The dataset memo: generation dominates setup cost, every figure wants the
// same graphs and tables, and a built dataset is immutable, so one instance
// serves every run (concurrent ones included) of a (name, scale, seed).
var (
	datasetMu sync.Mutex
	datasets  = map[string]any{}
)

// dataset returns the memoised dataset of a stock spec (GNN or DLR: the
// type is part of the key), building it with the spec's Build on a miss.
func dataset[T any](name string, o Options, build func(scale float64, seed uint64) (T, error)) (T, error) {
	var d T
	key := fmt.Sprintf("%T/%s/%g/%d", d, name, o.Scale, o.Seed)
	datasetMu.Lock()
	defer datasetMu.Unlock()
	if hit, ok := datasets[key]; ok {
		return hit.(T), nil
	}
	d, err := build(o.Scale, o.Seed)
	if err == nil {
		datasets[key] = d
	}
	return d, err
}

// fmtMS renders seconds as milliseconds.
func fmtMS(sec float64) string { return fmt.Sprintf("%.3f", sec*1e3) }

// fmtPct renders a fraction as a percentage.
func fmtPct(f float64) string { return fmt.Sprintf("%.1f%%", f*100) }

// fmtGB renders bytes as GB.
func fmtGB(b int64) string { return fmt.Sprintf("%.2f", float64(b)/(1<<30)) }
