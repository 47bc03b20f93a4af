package bench

import (
	"fmt"

	"ugache/internal/baselines"
	"ugache/internal/graph"
	"ugache/internal/platform"
	"ugache/internal/stats"
)

func init() {
	register("fig2", "hit rate and extraction time vs cache ratio: Rep vs Part vs UGache (sup. SAGE, PA, Server C)", matrix(figure2))
	register("fig6", "link tolerance of concurrent cores (the Fig. 6 microbenchmark)", figure6)
}

// figure2 reproduces Figure 2: (a) hit rates and (b) extraction time as the
// per-GPU cache ratio grows, for replication and partition caches (plus
// UGache in (b), as in the paper).
func figure2(o Options) (*Result, error) {
	p := platform.ServerC()
	ratios := []float64{0.02, 0.04, 0.06, 0.08, 0.10, 0.125, 0.15, 0.20, 0.25}
	if o.Quick {
		ratios = []float64{0.02, 0.08, 0.15, 0.25}
	}
	repHit := &stats.Series{Name: "Rep"}
	partLocal := &stats.Series{Name: "Part.Local"}
	partGlobal := &stats.Series{Name: "Part.Global"}
	repT := &stats.Series{Name: "Rep(ms)"}
	partT := &stats.Series{Name: "Part(ms)"}
	ugT := &stats.Series{Name: "UGache(ms)"}
	for _, ratio := range ratios {
		x := ratio * 100
		rep, err := runGNN(o, p, baselines.RepU, graph.PA, "sage", true, ratio)
		if err != nil {
			return nil, err
		}
		repHit.Append(x, rep.HitLocal*100)
		repT.Append(x, rep.PerIter.Extract*1e3)

		part, err := runGNN(o, p, baselines.PartU, graph.PA, "sage", true, ratio)
		if err != nil {
			return nil, err
		}
		partLocal.Append(x, part.HitLocal*100)
		partGlobal.Append(x, (part.HitLocal+part.HitRemote)*100)
		partT.Append(x, part.PerIter.Extract*1e3)

		ug, err := runGNN(o, p, baselines.UGache, graph.PA, "sage", true, ratio)
		if err != nil {
			return nil, err
		}
		ugT.Append(x, ug.PerIter.Extract*1e3)
	}
	text := stats.RenderSeries("Figure 2(a): hit rate (%) vs cache ratio (%)",
		"ratio%", repHit, partLocal, partGlobal) + "\n" +
		stats.RenderChart("Figure 2(a) plot", "cache ratio (%)", "hit rate (%)",
			repHit, partLocal, partGlobal) + "\n" +
		stats.RenderSeries("Figure 2(b): extraction time (ms) vs cache ratio (%)",
			"ratio%", repT, partT, ugT) + "\n" +
		stats.RenderChart("Figure 2(b) plot", "cache ratio (%)", "extraction time (ms)",
			repT, partT, ugT) + "\n" +
		"Paper shape: Rep local hit ~95% @12%; Part global ~99% but local ~12%;\n" +
		"Part extraction flat-lines beyond 12.5% (1/8 coverage) while Rep keeps improving;\n" +
		"UGache below both everywhere.\n"
	return &Result{Name: "fig2", Text: text}, nil
}

// figure6 reproduces Figure 6: achieved bandwidth vs concurrent cores for
// host/local/remote sources on (a) the 4×V100 and (b) the 8×A100, plus the
// multi-reader collision of Fig. 6(b) right.
func figure6(o Options) (*Result, error) {
	var parts []string
	for _, p := range []*platform.Platform{platform.ServerA(), platform.ServerC()} {
		var counts []int
		for c := 1; c <= p.GPU.SMs; c += max(1, p.GPU.SMs/16) {
			counts = append(counts, c)
		}
		cpu := &stats.Series{Name: "CPU(GB/s)"}
		local := &stats.Series{Name: "Local(GB/s)"}
		remote := &stats.Series{Name: "Remote(GB/s)"}
		for _, src := range []struct {
			s  *stats.Series
			id platform.SourceID
		}{{cpu, p.Host()}, {local, 0}, {remote, 1}} {
			pts, err := p.ProfileBandwidth(0, src.id, counts)
			if err != nil {
				return nil, err
			}
			for _, pt := range pts {
				src.s.Append(float64(pt.Cores), pt.Bandwidth/1e9)
			}
		}
		parts = append(parts, stats.RenderSeries(
			fmt.Sprintf("Figure 6: bandwidth vs cores used (%s)", p.Name),
			"cores", cpu, local, remote))
	}
	// Multi-reader collision on the switch-based server.
	c := platform.ServerC()
	t := stats.NewTable("Figure 6(b) right: per-reader bandwidth (GB/s) reading GPU4, full cores each",
		"readers", "per-reader BW")
	for _, readers := range [][]int{{2}, {2, 3}, {0, 2, 3}, {0, 1, 2, 3}} {
		bw, err := c.ProfileMultiReader(4, readers, c.GPU.SMs)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%d", len(readers)), fmt.Sprintf("%.0f", bw[2]/1e9))
	}
	parts = append(parts, t.String(),
		"Paper shape: local rises to the full SM count; remote plateaus at the link/port\n"+
			"capacity; CPU saturates below 10% of cores; concurrent readers split a source's\n"+
			"outbound port.\n")
	return &Result{Name: "fig6", Text: joinResults(parts...)}, nil
}
