package bench

import (
	"fmt"
	"math"
	"slices"
	"time"

	"ugache/internal/app"
	"ugache/internal/baselines"
	"ugache/internal/extract"
	"ugache/internal/graph"
	"ugache/internal/platform"
	"ugache/internal/rng"
	"ugache/internal/sim"
	"ugache/internal/solver"
	"ugache/internal/stats"
	"ugache/internal/workload"
)

func init() {
	register("ablate-blocks", "block budget vs solve time and optimality gap (§6.3 approximation)", ablateBlocks)
	register("ablate-policies", "policy family comparison on the §6.2 model across platforms", ablatePolicies)
	register("ablate-dedication", "FEM host-core reservation sweep", ablateDedication)
	register("ablate-padding", "local-extraction padding on/off (§5.3)", ablatePadding)
	register("ablate-hotness", "hotness source: presampling vs degree proxy (§6.1)", ablateHotness)
	register("ablate-dispatch", "locality-aware dispatching vs UGache (§3.1 [31])", ablateDispatch)
}

// ablationInput builds a synthetic solver input with Zipf hotness.
func ablationInput(p *platform.Platform, n int, alpha, ratio float64, seed uint64) *solver.Input {
	r := rng.New(seed)
	perm := r.Perm(n)
	h := make(workload.Hotness, n)
	for rank := 0; rank < n; rank++ {
		h[perm[rank]] = math.Pow(float64(rank+1), -alpha)
	}
	caps := make([]int64, p.N)
	for g := range caps {
		caps[g] = int64(float64(n) * ratio)
	}
	return &solver.Input{P: p, Hotness: h, EntryBytes: 512, Capacity: caps}
}

// ablateBlocks sweeps the §6.3 block budget: more blocks mean a bigger LP
// but a smaller approximation loss — the paper's "less than one thousand
// blocks, ~10 s solve, <2% average gap" trade-off.
func ablateBlocks(o Options) (*Result, error) {
	p := platform.ServerC()
	n := int(200000 * o.Scale)
	if n < 20000 {
		n = 20000
	}
	ref := ablationInput(p, n, 1.1, 0.08, o.Seed)
	ref.BlockBudget = 1024
	refPl, err := (solver.OptimalLP{}).Solve(ref)
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("Ablation: block budget (sup-style Zipf 1.1, ratio 8%, Server C)",
		"blocks", "solve(ms)", "modelled time(us)", "gap vs 1024-block optimal")
	for _, budget := range []int{16, 32, 64, 128, 256, 512} {
		in := ablationInput(p, n, 1.1, 0.08, o.Seed)
		in.BlockBudget = budget
		t0 := time.Now()
		pl, err := (solver.UGache{}).Solve(in)
		if err != nil {
			return nil, err
		}
		el := time.Since(t0)
		got := slices.Max(pl.EstTimes)
		gap := "-"
		if refPl.LowerBound > 0 {
			gap = fmt.Sprintf("%+.2f%%", 100*(got/refPl.LowerBound-1))
		}
		t.AddRow(fmt.Sprintf("%d", budget),
			fmt.Sprintf("%.1f", float64(el.Microseconds())/1000),
			fmt.Sprintf("%.4g", got*1e6), gap)
	}
	return &Result{Name: "ablate-blocks", Text: t.String() +
		"\nPaper: block batching reduces E from billions to <1000 with <2% average loss.\n"}, nil
}

// ablatePolicies compares every policy family on the §6.2 model across the
// three servers at a moderate ratio.
func ablatePolicies(o Options) (*Result, error) {
	n := int(200000 * o.Scale)
	if n < 20000 {
		n = 20000
	}
	t := stats.NewTable("Ablation: policy families, modelled extraction time (us)",
		"server", "replication", "partition", "clique", "rep-part", "ugache")
	for _, p := range serverSet(o) {
		row := []string{p.Name}
		for _, polName := range []string{"replication", "partition", "clique-partition", "rep-part", "ugache"} {
			pol, err := solver.PolicyByName(polName)
			if err != nil {
				return nil, err
			}
			in := ablationInput(p, n, 1.1, 0.08, o.Seed)
			pl, err := pol.Solve(in)
			if err != nil {
				row = append(row, "fail")
				continue
			}
			row = append(row, fmt.Sprintf("%.4g", slices.Max(pl.EstTimes)*1e6))
		}
		t.AddRow(row...)
	}
	return &Result{Name: "ablate-policies", Text: t.String()}, nil
}

// ablateDedication sweeps the FEM host-core reservation around the §5.3
// tolerance-derived default, confirming the design point.
func ablateDedication(o Options) (*Result, error) {
	p := platform.ServerC()
	// Manual factored run: host + remote groups with varying host cores.
	t := stats.NewTable("Ablation: host-core reservation (Server C, mixed batch)",
		"host cores", "extraction (us)")
	hostTol, _ := p.Tolerance(0, p.Host())
	def := int(math.Ceil(hostTol))
	for _, hc := range []int{1, 2, 4, def, 2 * def, 4 * def} {
		time, err := factoredWithHostCores(p, hc)
		if err != nil {
			return nil, err
		}
		label := fmt.Sprintf("%d", hc)
		if hc == def {
			label += " (tolerance, default)"
		}
		t.AddRow(label, fmt.Sprintf("%.2f", time*1e6))
	}
	return &Result{Name: "ablate-dedication", Text: t.String() +
		"\nShape: too few host cores leave PCIe unsaturated; too many steal from the\n" +
		"NVLink groups. The tolerance-derived default sits at the knee (§5.3).\n"}, nil
}

// factoredWithHostCores simulates one destination's factored extraction
// with an explicit host-core count; remote groups split the remainder and
// pad into local as usual.
func factoredWithHostCores(p *platform.Platform, hostCores int) (float64, error) {
	// A representative mixed batch per GPU: 30% local, 65% remote (spread
	// over peers), 5% host, 16 MB total — remote-heavy so both failure
	// directions of the reservation are visible.
	const total = 16e6
	localB, remoteB, hostB := 0.3*total, 0.65*total, 0.05*total
	var demands []sim.Demand
	for g := 0; g < p.N; g++ {
		localIdx := len(demands)
		lp, _ := p.Path(g, platform.SourceID(g))
		demands = append(demands, sim.Demand{
			Bytes: localB, Cores: 0, RCore: p.GPU.RCoreLocal, Path: lp, PadTo: -1,
		})
		hp, _ := p.Path(g, p.Host())
		demands = append(demands, sim.Demand{
			Bytes: hostB, Cores: float64(hostCores), RCore: p.GPU.RCoreHost,
			Path: hp, PadTo: localIdx,
		})
		remaining := float64(p.GPU.SMs) - float64(hostCores)
		each := remaining / float64(p.N-1)
		for j := 0; j < p.N; j++ {
			if j == g {
				continue
			}
			rp, ok := p.Path(g, platform.SourceID(j))
			if !ok {
				continue
			}
			demands = append(demands, sim.Demand{
				Bytes: remoteB / float64(p.N-1), Cores: each,
				RCore: p.GPU.RCoreRemote, Path: rp, PadTo: localIdx,
			})
		}
	}
	res, err := p.Topo.Run(demands, nil)
	if err != nil {
		return 0, err
	}
	return res.Makespan, nil
}

// ablatePadding compares full FEM against the static no-padding variant
// (§5.3's load-imbalance tolerance) across cache ratios.
func ablatePadding(o Options) (*Result, error) {
	// Padding matters when per-source times are ragged despite core
	// dedication — i.e. when link tolerances cap a group's speed (DGX-1's
	// uneven 25/50 GB/s pairs under a partition placement). On even,
	// core-bound mixes a static proportional split ties with padding.
	p := platform.ServerB()
	t := stats.NewTable("Ablation: local-extraction padding (partition placement, Server B)",
		"ratio%", "factored (us)", "no padding (us)", "padding gain")
	for _, ratio := range []float64{0.10, 0.20, 0.30} {
		in := ablationInput(p, 50000, 1.1, ratio, o.Seed)
		pl, err := (solver.CliquePartition{}).Solve(in)
		if err != nil {
			return nil, err
		}
		ex, err := extract.New(p, pl)
		if err != nil {
			return nil, err
		}
		b, err := ablationBatch(p, 50000, o.Seed)
		if err != nil {
			return nil, err
		}
		full, err := ex.Run(extract.Factored, b, nil)
		if err != nil {
			return nil, err
		}
		static, err := ex.Run(extract.FactoredStatic, b, nil)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%.0f", ratio*100),
			fmt.Sprintf("%.2f", full.Time*1e6),
			fmt.Sprintf("%.2f", static.Time*1e6),
			fmt.Sprintf("%.2fx", static.Time/full.Time))
	}
	return &Result{Name: "ablate-padding", Text: t.String() +
		"\nHonest finding: in the fluid model the gain is near 1.0x — with exact\n" +
		"per-batch byte counts a static proportional split is already nearly\n" +
		"work-conserving. The paper's padding benefit comes from *unpredictable*\n" +
		"per-batch raggedness that a static split cannot track on real hardware;\n" +
		"the deterministic simulator cannot exhibit that variance, so this\n" +
		"ablation bounds the padding benefit rather than reproducing it\n" +
		"(a documented limitation; see EXPERIMENTS.md, Known deviations).\n"}, nil
}

// ablationBatch draws one Zipf batch for every GPU.
func ablationBatch(p *platform.Platform, n int, seed uint64) (*extract.Batch, error) {
	z, err := workload.NewZipf(int64(n), 1.1)
	if err != nil {
		return nil, err
	}
	r := rng.New(seed).Split("ablation-batch")
	b := &extract.Batch{Keys: make([][]int64, p.N)}
	scratch := make(map[int64]struct{})
	for g := 0; g < p.N; g++ {
		keys := make([]int64, 120000)
		for i := range keys {
			keys[i] = z.Sample(r)
		}
		b.Keys[g] = workload.Unique(keys, scratch)
	}
	return b, nil
}

// ablateHotness compares the two §6.1 hotness sources: presampled batches
// (GNNLab-style) versus the vertex-degree proxy (PaGraph-style).
func ablateHotness(o Options) (*Result, error) {
	p := platform.ServerC()
	ds, err := dataset(graph.PA.Name, o, graph.PA.Build)
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("Ablation: hotness source (sup. SAGE/PA, Server C, ratio 8%)",
		"hotness", "extract (ms)", "local", "remote", "host")
	for _, mode := range []struct {
		label  string
		degree bool
	}{{"presampled (§6.1 profiling)", false}, {"degree proxy (PaGraph)", true}} {
		a, err := app.NewGNN(app.GNNConfig{
			P: p, DS: ds, Model: "sage", Supervised: true,
			BatchSize: batchSize(o), Spec: baselines.UGache, CacheRatio: 0.08,
			DegreeHotness: mode.degree, Seed: o.Seed,
		})
		if err != nil {
			return nil, err
		}
		rep, err := a.RunIters(o.Iters)
		if err != nil {
			return nil, err
		}
		t.AddRow(mode.label, fmtMS(rep.PerIter.Extract),
			fmtPct(rep.HitLocal), fmtPct(rep.HitRemote), fmtPct(rep.HitHost))
	}
	return &Result{Name: "ablate-hotness", Text: t.String() +
		"\nShape: the degree proxy preserves the ranking direction (§6.1: \"vertices\n" +
		"with higher degrees are more likely to be accessed\") but loses measurably\n" +
		"to presampling because it ignores the train-set-conditioned access\n" +
		"pattern — consistent with GNNLab's pre-sampling improving on PaGraph.\n"}, nil
}

// ablateDispatch measures locality-aware dispatching (HET-GMP [31], §3.1):
// routing each inference sample to its highest-affinity GPU raises a
// partition cache's local hit rate, but — as the paper argues — cannot
// overcome the long-tail effect, and UGache still wins without touching
// the application's dispatching.
func ablateDispatch(o Options) (*Result, error) {
	p := platform.ServerC()
	ds, err := dataset(workload.SYNA.Name, o, workload.SYNA.Build)
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("Ablation: locality-aware dispatching (DLRM/SYN-A, Server C)",
		"system", "extract (ms)", "local", "remote", "host")
	run := func(label string, spec baselines.Spec, dispatch bool) error {
		a, err := app.NewDLR(app.DLRConfig{
			P: p, DS: ds, Model: "dlrm", BatchSize: batchSize(o), Spec: spec,
			Mem:              app.MemoryModel{MemScale: o.memScale()},
			LocalityDispatch: dispatch, Seed: o.Seed,
		})
		if err != nil {
			return err
		}
		rep, err := a.RunIters(o.Iters)
		if err != nil {
			return err
		}
		t.AddRow(label, fmtMS(rep.PerIter.Extract),
			fmtPct(rep.HitLocal), fmtPct(rep.HitRemote), fmtPct(rep.HitHost))
		return nil
	}
	if err := run("PartU", baselines.PartU, false); err != nil {
		return nil, err
	}
	if err := run("PartU + dispatch", baselines.PartU, true); err != nil {
		return nil, err
	}
	if err := run("UGache", baselines.UGache, false); err != nil {
		return nil, err
	}
	return &Result{Name: "ablate-dispatch", Text: t.String() +
		"\nShape (§3.1): dispatching lifts partition's local hit rate but the long\n" +
		"tail keeps its extraction above UGache's, which needs no application\n" +
		"changes.\n"}, nil
}
