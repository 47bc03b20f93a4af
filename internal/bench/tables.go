package bench

import (
	"fmt"
	"strings"

	"ugache/internal/app"
	"ugache/internal/baselines"
	"ugache/internal/graph"
	"ugache/internal/platform"
	"ugache/internal/stats"
	"ugache/internal/workload"
)

func init() {
	register("table1", "runtime/data breakdown of a single-GPU cache (unsup. GraphSAGE, MAG)", table1)
	register("table3", "dataset inventory (scaled stand-ins)", table3)
}

// singleA100 builds the Table 1 testbed: one A100-80GB.
func singleA100() (*platform.Platform, error) {
	return platform.New(platform.Config{
		Name: "1xA100", Kind: platform.SwitchBased, GPU: platform.A100x80,
		N: 1, PCIeBW: 25e9, DRAMBW: 320e9, SwitchPortBW: 270e9,
	})
}

// table1 reproduces Table 1: the MLP vs EMT time and data breakdown of
// unsupervised GraphSAGE training on MAG with one A100, with and without
// the embedding cache.
func table1(o Options) (*Result, error) {
	p, err := singleA100()
	if err != nil {
		return nil, err
	}
	ds, err := dataset(graph.MAG.Name, o, graph.MAG.Build)
	if err != nil {
		return nil, err
	}
	run := func(ratio float64) (*app.Report, error) {
		a, err := app.NewGNN(app.GNNConfig{
			P: p, DS: ds, Model: "sage", Supervised: false,
			BatchSize: batchSize(o), Spec: baselines.UGache, CacheRatio: ratio,
			Mem:  app.MemoryModel{MemScale: o.memScale()},
			Seed: o.Seed,
		})
		if err != nil {
			return nil, err
		}
		return a.RunIters(o.Iters)
	}
	noCache, err := run(1e-12) // effectively uncached
	if err != nil {
		return nil, err
	}
	cached, err := run(0) // memory-derived capacity, as on the real GPU
	if err != nil {
		return nil, err
	}

	t := stats.NewTable("Table 1: breakdown, unsup. GraphSAGE + MAG, 1xA100",
		"metric", "MLP", "EMT", "EMT w/ $", "Total", "Total w/ $")
	mlp := noCache.PerIter.Dense + noCache.PerIter.Sample
	t.AddRow("Execution Time (ms)",
		fmtMS(mlp),
		fmtMS(noCache.PerIter.Extract),
		fmtMS(cached.PerIter.Extract),
		fmtMS(mlp+noCache.PerIter.Extract),
		fmtMS(cached.PerIter.Dense+cached.PerIter.Sample+cached.PerIter.Extract))
	cachedBytes := cached.CapacityEntries * int64(ds.Table.EntryBytes())
	t.AddRow("Data Size (GB)",
		"~0.00", // dense parameters are MBs even unscaled
		fmtGB(ds.VolumeE()),
		fmt.Sprintf("%s (%s in $)", fmtGB(ds.VolumeE()), fmtGB(cachedBytes)),
		fmtGB(ds.VolumeE()), fmtGB(ds.VolumeE()))
	t.AddRow("Access Gmem Ratio",
		"100%",
		fmtPct(noCache.HitLocal),
		fmtPct(cached.HitLocal),
		"-", "-")
	text := t.String() + fmt.Sprintf(
		"\nPaper (full scale): EMT 113.3 ms -> 20.7 ms with cache; cache hit 84.6%%.\n"+
			"Shape check: cache cuts EMT by %.1fx; Gmem ratio %.1f%%.\n",
		noCache.PerIter.Extract/cached.PerIter.Extract, cached.HitLocal*100)
	return &Result{Name: "table1", Text: text}, nil
}

// table3 reproduces Table 3: the dataset inventory.
func table3(o Options) (*Result, error) {
	t := stats.NewTable("Table 3: GNN datasets (scaled stand-ins)",
		"dataset", "#vertex", "#edge", "dim", "dtype", "VolumeG(GB)", "VolumeE(GB)", "train%")
	for _, spec := range graph.GNNDatasets {
		ds, err := dataset(spec.Name, o, spec.Build)
		if err != nil {
			return nil, err
		}
		t.AddRow(spec.Name,
			fmt.Sprintf("%d", ds.G.NumNodes()),
			fmt.Sprintf("%d", ds.G.NumEdges()),
			fmt.Sprintf("%d", spec.Dim),
			spec.DType.String(),
			fmtGB(ds.VolumeG()),
			fmtGB(ds.VolumeE()),
			fmt.Sprintf("%.1f%%", 100*float64(len(ds.Train))/float64(ds.G.NumNodes())))
	}
	t2 := stats.NewTable("Table 3 (cont.): DLR datasets",
		"dataset", "#entry", "#table", "dim", "skew", "VolumeE(GB)")
	for _, spec := range workload.DLRDatasets {
		ds, err := dataset(spec.Name, o, spec.Build)
		if err != nil {
			return nil, err
		}
		skew := fmt.Sprintf("%.1f", spec.Alpha)
		if spec.Name == "CR" {
			skew = "trace-like"
		}
		t2.AddRow(spec.Name,
			fmt.Sprintf("%d", ds.NumEntries()),
			fmt.Sprintf("%d", len(spec.TableSizes)),
			fmt.Sprintf("%d", spec.Dim),
			skew,
			fmtGB(ds.MT.TotalBytes()))
	}
	return &Result{Name: "table3", Text: t.String() + "\n" + t2.String()}, nil
}

// joinResults concatenates rendered sections.
func joinResults(parts ...string) string {
	return strings.Join(parts, "\n")
}
