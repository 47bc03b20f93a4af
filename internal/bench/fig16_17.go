package bench

import (
	"fmt"

	"ugache/internal/app"
	"ugache/internal/baselines"
	"ugache/internal/cache"
	"ugache/internal/core"
	"ugache/internal/extract"
	"ugache/internal/platform"
	"ugache/internal/rng"
	"ugache/internal/solver"
	"ugache/internal/stats"
	"ugache/internal/workload"
)

func init() {
	register("fig16", "UGache vs theoretically optimal cache policy", matrix(figure16))
	register("fig17", "refresh timeline: inference latency with two triggered refreshes", figure17)
	register("summary", "average/max speedups vs replication and partition systems (from fig10 data)", matrix(summary))
}

// figure16 reproduces Figure 16: extraction time of UGache's
// block-approximate policy versus the theoretically optimal policy (both
// extracted with UGache's mechanism), the exact LP at finer granularity. It
// covers the symmetric servers only: the reference refuses the DGX-1, where
// the paper itself had to shrink the instances ("SYN-As/Bs").
func figure16(o Options) (*Result, error) {
	optSpec := baselines.UGache.WithPolicy(solver.OptimalLP{})
	optSpec.Name = "Optimal"
	t := stats.NewTable("Figure 16: extraction time (ms), UGache vs optimal policy",
		"server", "workload", "UGache", "Optimal", "gap")
	addRow := func(p *platform.Platform, label string, run func(spec baselines.Spec) (float64, error)) error {
		ug, err := run(baselines.UGache)
		if err != nil {
			return err
		}
		opt, err := run(optSpec)
		if err != nil {
			return err
		}
		gap := "-"
		if opt > 0 {
			gap = fmt.Sprintf("%+.1f%%", 100*(ug/opt-1))
		}
		t.AddRow(p.Name, label, fmtMS(ug), fmtMS(opt), gap)
		return nil
	}

	// Server A: DLRM over the DLR datasets.
	a := platform.ServerA()
	dlrSets := []workload.DLRSpec{workload.CR, workload.SYNA, workload.SYNB}
	if o.Quick {
		dlrSets = dlrSets[1:2]
	}
	for _, ds := range dlrSets {
		ds := ds
		if err := addRow(a, "DLRM/"+ds.Name, func(spec baselines.Spec) (float64, error) {
			rep, err := runDLR(o, a, spec, ds, "dlrm", 0)
			if err != nil {
				return 0, err
			}
			return rep.PerIter.Extract, nil
		}); err != nil {
			return nil, err
		}
	}

	// Server C: the GNN matrix.
	c := platform.ServerC()
	for _, w := range gnnWorkloads(o) {
		for _, ds := range gnnDatasetsFor(o) {
			ds := ds
			w := w
			if err := addRow(c, w.Label+"/"+ds.Name, func(spec baselines.Spec) (float64, error) {
				rep, err := runGNN(o, c, spec, ds, w.Model, w.Sup, 0)
				if err != nil {
					return 0, err
				}
				return rep.PerIter.Extract, nil
			}); err != nil {
				return nil, err
			}
		}
	}
	return &Result{Name: "fig16", Text: t.String() +
		"\nPaper shape: the approximation's gap to the optimal policy is ~2% on average.\n" +
		"Server B has no row: its cube-mesh is not symmetric, and the exact LP covers\n" +
		"only inputs on which every GPU pair is alike (the paper, too, had no Server-B\n" +
		"optimum and solved specially reduced SYN-As/Bs instances instead).\n"}, nil
}

// figure17 reproduces Figure 17: the DLRM/CR inference timeline on Server C
// with two manually triggered refreshes; the refresh runs in the background
// in small batches and inflates foreground latency by ~10% for ~20-30 s.
func figure17(o Options) (*Result, error) {
	p := platform.ServerC()
	ds, err := dataset(workload.CR.Name, o, workload.CR.Build)
	if err != nil {
		return nil, err
	}
	n := ds.NumEntries()
	// Build with a solver-policy cache and functional refresh support.
	reqs := rng.New(o.Seed).Split("dlr-" + ds.Spec.Name)
	var rec [][]int64
	for i := 0; i < 64; i++ {
		rec = append(rec, ds.GenBatch(reqs, batchSize(o)))
	}
	hot, err := workload.ProfileBatches(n, rec)
	if err != nil {
		return nil, err
	}
	mem := app.MemoryModel{MemScale: o.memScale()}
	capacity := mem.CapacityEntries(p, ds.MT.MaxEntryBytes(), 0)
	if capacity > n {
		capacity = n
	}
	sys, err := core.Build(core.Config{
		Platform:           p,
		Hotness:            hot,
		EntryBytes:         ds.MT.MaxEntryBytes(),
		CacheEntriesPerGPU: max(capacity, 1),
		Telemetry:          o.Telemetry,
		Flight:             o.flight(1, 8), // its two refreshes
	})
	if err != nil {
		return nil, err
	}

	// Baseline iteration latency.
	scratch := make(map[int64]struct{})
	batch := func() *extract.Batch {
		b := &extract.Batch{Keys: make([][]int64, p.N)}
		for g := 0; g < p.N; g++ {
			b.Keys[g] = workload.Unique(ds.GenBatch(reqs, batchSize(o)), scratch)
		}
		return b
	}
	res, err := sys.ExtractBatch(batch(), nil)
	if err != nil {
		return nil, err
	}
	base := res.Time

	// Shifted hotness (a daily-trace drift): rotate popularity within each
	// table by hashing keys, then refresh twice as in Fig. 17.
	shift := make(workload.Hotness, n)
	r := rng.New(o.Seed).Split("drift")
	perm := r.Perm(len(shift))
	for i := range shift {
		shift[i] = hot[perm[i]]
	}
	cfg := cache.DefaultRefreshConfig()
	// Pace the refresh for the figure: the update-bandwidth budget is set so
	// that turning over the whole aggregate cache takes ~18 s of update time
	// (the paper's refresh lasts ~28.7 s including the ~10 s solve), and
	// pauses are sized for a ~40% duty cycle so the mean foreground impact
	// lands at the paper's ~10%.
	aggCapBytes := float64(int64(p.N) * capacity * int64(ds.MT.MaxEntryBytes()))
	cfg.UpdateBandwidth = aggCapBytes * 1.3 * 2.5 / 18.0
	cfg.BatchEntries = max(n/256, 1)
	perStep := float64(cfg.BatchEntries*int64(ds.MT.MaxEntryBytes())) / cfg.UpdateBandwidth
	cfg.PauseSeconds = 1.5 * perStep
	cfg.SamplePeriod = 1.0
	rep1, err := sys.Refresh(shift, base, cfg)
	if err != nil {
		return nil, err
	}
	rep2, err := sys.Refresh(hot, base, cfg)
	if err != nil {
		return nil, err
	}

	t := stats.NewTable("Figure 17: DLRM/CR inference timeline with two refreshes (Server C)",
		"time(s)", "iter(ms)")
	emit := func(offset float64, rep *cache.RefreshReport) {
		for _, st := range rep.Timeline {
			if st.T < -1 || st.T > rep.Duration+1 {
				continue
			}
			t.AddRow(fmt.Sprintf("%.1f", offset+st.T), fmtMS(st.IterTime))
		}
	}
	emit(40, rep1)
	emit(150, rep2)
	text := t.String() + fmt.Sprintf(
		"\nRefresh 1: duration %.1fs, mean impact %.1f%%, %d evicted / %d inserted.\n"+
			"Refresh 2: duration %.1fs, mean impact %.1f%%.\n"+
			"Paper shape: refresh takes ~28.7s and impacts the foreground by ~10%%.\n",
		rep1.Duration, rep1.MeanImpact*100, rep1.EvictedEntries, rep1.InsertedEntries,
		rep2.Duration, rep2.MeanImpact*100)
	return &Result{Name: "fig17", Text: text}, nil
}

// summary reproduces the headline aggregate (§8.2): geometric-mean and max
// speedups of UGache over the replication and partition systems across the
// fig10 matrix.
func summary(o Options) (*Result, error) {
	var repGNN, partGNN, repDLR, partDLR []float64
	maxOf := func(xs []float64) float64 {
		m := 0.0
		for _, x := range xs {
			if x > m {
				m = x
			}
		}
		return m
	}
	for _, p := range serverSet(o) {
		for _, w := range gnnWorkloads(o) {
			for _, ds := range gnnDatasetsFor(o) {
				ug, err := runGNN(o, p, baselines.UGache, ds, w.Model, w.Sup, 0)
				if err != nil {
					return nil, err
				}
				if rep, err := runGNN(o, p, baselines.GNNLab, ds, w.Model, w.Sup, 0); err == nil {
					repGNN = append(repGNN, rep.EpochSeconds/ug.EpochSeconds)
				}
				if part, err := runGNN(o, p, baselines.PartU, ds, w.Model, w.Sup, 0); err == nil {
					partGNN = append(partGNN, part.EpochSeconds/ug.EpochSeconds)
				}
			}
		}
		for _, model := range dlrModelsFor(o) {
			for _, ds := range dlrDatasetsFor(o) {
				ug, err := runDLR(o, p, baselines.UGache, ds, model, 0)
				if err != nil {
					return nil, err
				}
				if rep, err := runDLR(o, p, baselines.HPS, ds, model, 0); err == nil {
					repDLR = append(repDLR, rep.PerIter.Iter()/ug.PerIter.Iter())
				}
				if part, err := runDLR(o, p, baselines.SOK, ds, model, 0); err == nil {
					partDLR = append(partDLR, part.PerIter.Iter()/ug.PerIter.Iter())
				}
			}
		}
	}
	t := stats.NewTable("Headline speedups of UGache (from the fig10 matrix)",
		"comparison", "avg", "max", "paper avg", "paper max")
	t.AddRow("GNN vs replication (GNNLab)",
		fmt.Sprintf("%.2fx", stats.GeoMean(repGNN)), fmt.Sprintf("%.2fx", maxOf(repGNN)), "2.21x", "5.25x")
	t.AddRow("GNN vs partition (PartU)",
		fmt.Sprintf("%.2fx", stats.GeoMean(partGNN)), fmt.Sprintf("%.2fx", maxOf(partGNN)), "1.33x", "1.85x")
	t.AddRow("DLR vs replication (HPS)",
		fmt.Sprintf("%.2fx", stats.GeoMean(repDLR)), fmt.Sprintf("%.2fx", maxOf(repDLR)), "1.51x", "2.34x")
	t.AddRow("DLR vs partition (SOK)",
		fmt.Sprintf("%.2fx", stats.GeoMean(partDLR)), fmt.Sprintf("%.2fx", maxOf(partDLR)), "2.07x", "3.45x")
	return &Result{Name: "summary", Text: t.String()}, nil
}
