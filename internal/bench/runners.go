package bench

import (
	"fmt"
	"runtime"
	"sync"

	"ugache/internal/app"
	"ugache/internal/baselines"
	"ugache/internal/graph"
	"ugache/internal/par"
	"ugache/internal/platform"
	"ugache/internal/workload"
)

// A report is a function of its configuration alone — every app draws from
// a generator derived from the seed, and a built dataset is immutable — so
// reports are memoised by configuration (fig10, fig11 and the summary share
// one matrix) and may be computed in any order, on any number of workers.
// Errors are memoised too: a launch failure renders as "fail" in several
// figures and need not be found twice.
type reportEntry struct {
	rep *app.Report
	err error
}

var (
	reportMu    sync.Mutex
	reportCache = map[string]reportEntry{}
)

func resetReportCache() {
	reportMu.Lock()
	reportCache = map[string]reportEntry{}
	reportMu.Unlock()
}

// plan collects the distinct reports a render asks for.
type plan struct {
	keys map[string]bool
	runs []func()
}

// report returns the report of one configuration from the memo. Under a
// planning pass it only notes the request, once per configuration, and
// answers with a blank report.
func (o Options) report(key string, run func() (*app.Report, error)) (*app.Report, error) {
	if pl := o.plan; pl != nil {
		if !pl.keys[key] {
			pl.keys[key] = true
			pl.runs = append(pl.runs, func() { _, _ = memoReport(key, run) })
		}
		return &app.Report{}, nil
	}
	return memoReport(key, run)
}

// memoReport returns the memoised outcome of run under key, running it on
// a miss.
func memoReport(key string, run func() (*app.Report, error)) (*app.Report, error) {
	reportMu.Lock()
	e, ok := reportCache[key]
	reportMu.Unlock()
	if !ok {
		e.rep, e.err = run()
		reportMu.Lock()
		reportCache[key] = e
		reportMu.Unlock()
	}
	return e.rep, e.err
}

// matrix wraps a figure that is a render over memoised reports: the render
// runs once against blank reports to collect the configurations it asks
// for, a bounded pool computes them, and the render runs for real. The
// render is the one statement of the figure's matrix; it must ask for the
// same reports whatever an earlier one held.
func matrix(render func(Options) (*Result, error)) func(Options) (*Result, error) {
	return func(o Options) (*Result, error) {
		if workers := o.workerCount(); workers > 1 {
			dry := o
			dry.plan = &plan{keys: map[string]bool{}}
			// The dry render's own result and error mean nothing: it read blanks.
			_, _ = render(dry)
			// The runs memoise their errors, so Each has none to return.
			_ = par.Each(len(dry.plan.runs), workers, func(_, i int) error {
				dry.plan.runs[i]()
				return nil
			})
		}
		return render(o)
	}
}

// workerCount resolves Options.Workers: 0 means one worker per CPU, 1 means
// no pool (the render computes each report as it reaches it).
func (o Options) workerCount() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// runGNN builds and measures one GNN configuration. ratio == 0 derives the
// cache capacity from the (scaled) memory model, as the end-to-end figures
// do; ratio > 0 pins it, as the sweep figures do.
func runGNN(o Options, p *platform.Platform, spec baselines.Spec, dsSpec graph.DatasetSpec,
	model string, supervised bool, ratio float64) (*app.Report, error) {
	key := fmt.Sprintf("gnn/%s/%s/%s/%s/%s/%v/%g/%g/%d/%d",
		p.Name, spec.Name, spec.Mechanism, dsSpec.Name, model, supervised, ratio, o.Scale, o.Iters, o.Seed)
	return o.report(key, func() (*app.Report, error) {
		ds, err := dataset(dsSpec.Name, o, dsSpec.Build)
		if err != nil {
			return nil, err
		}
		a, err := app.NewGNN(app.GNNConfig{
			P: p, DS: ds, Model: model, Supervised: supervised,
			BatchSize: batchSize(o), Spec: spec, CacheRatio: ratio,
			Mem:  app.MemoryModel{MemScale: o.memScale()},
			Seed: o.Seed,
		})
		if err != nil {
			return nil, err
		}
		return a.RunIters(o.Iters)
	})
}

// runDLR builds and measures one DLR configuration.
func runDLR(o Options, p *platform.Platform, spec baselines.Spec, dsSpec workload.DLRSpec,
	model string, ratio float64) (*app.Report, error) {
	key := fmt.Sprintf("dlr/%s/%s/%s/%s/%s/%g/%g/%d/%d",
		p.Name, spec.Name, spec.Mechanism, dsSpec.Name, model, ratio, o.Scale, o.Iters, o.Seed)
	return o.report(key, func() (*app.Report, error) {
		ds, err := dataset(dsSpec.Name, o, dsSpec.Build)
		if err != nil {
			return nil, err
		}
		a, err := app.NewDLR(app.DLRConfig{
			P: p, DS: ds, Model: model, BatchSize: batchSize(o), Spec: spec,
			CacheRatio: ratio,
			Mem:        app.MemoryModel{MemScale: o.memScale()},
			Seed:       o.Seed,
		})
		if err != nil {
			return nil, err
		}
		return a.RunIters(o.Iters)
	})
}

// batchSize follows the paper's 8K per GPU, scaled down with the datasets
// so neighbourhoods keep a comparable coverage of the graph.
func batchSize(o Options) int {
	b := int(8192 * o.Scale)
	if b < 64 {
		b = 64
	}
	return b
}
