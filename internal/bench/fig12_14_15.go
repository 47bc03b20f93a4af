package bench

import (
	"fmt"

	"ugache/internal/baselines"
	"ugache/internal/extract"
	"ugache/internal/graph"
	"ugache/internal/platform"
	"ugache/internal/stats"
)

func init() {
	register("fig12", "extraction time, incrementally applying UGache's techniques (sup. SAGE, PA+CF, Server C)", matrix(figure12))
	register("fig14", "access split local/remote/host vs cache ratio (sup. SAGE, PA+CF, Server C)", matrix(figure14))
	register("fig15", "per-source extraction time vs cache ratio (all with UGache's extractor)", matrix(figure15))
}

func fig12Ratios(o Options) []float64 {
	if o.Quick {
		return []float64{0.02, 0.08, 0.15}
	}
	return []float64{0.02, 0.04, 0.06, 0.08, 0.10, 0.15, 0.20, 0.25}
}

// figure12 reproduces Figure 12: extraction time while incrementally
// applying UGache's cache policy and extraction mechanism on top of the
// RepU/PartU baselines.
func figure12(o Options) (*Result, error) {
	p := platform.ServerC()
	var parts []string
	for _, ds := range []graph.DatasetSpec{graph.PA, graph.CF} {
		repU := &stats.Series{Name: "RepU"}
		partU := &stats.Series{Name: "PartU"}
		policy := &stats.Series{Name: "+Policy"}
		full := &stats.Series{Name: "UGache"}
		for _, ratio := range fig12Ratios(o) {
			x := ratio * 100
			for _, c := range []struct {
				s    *stats.Series
				spec baselines.Spec
			}{
				{repU, baselines.RepU},
				{partU, baselines.PartU},
				// +Policy: UGache's solver with the baseline (naive peer)
				// extraction.
				{policy, baselines.UGache.WithMechanism(extract.PeerRandom)},
				{full, baselines.UGache},
			} {
				rep, err := runGNN(o, p, c.spec, ds, "sage", true, ratio)
				if err != nil {
					return nil, err
				}
				c.s.Append(x, rep.PerIter.Extract*1e3)
			}
		}
		parts = append(parts, stats.RenderSeries(
			fmt.Sprintf("Figure 12: extraction time (ms) vs cache ratio (%%), %s", ds.Name),
			"ratio%", repU, partU, policy, full))
		parts = append(parts, stats.RenderChart(
			fmt.Sprintf("Figure 12 plot, %s", ds.Name),
			"cache ratio (%)", "extraction time (ms)", repU, partU, policy, full))
	}
	parts = append(parts,
		"Paper shape: at low ratio the mechanism provides most of the gain (policy is\n"+
			"partition-like); as the ratio grows the policy's divergence from partition\n"+
			"dominates the improvement.\n")
	return &Result{Name: "fig12", Text: joinResults(parts...)}, nil
}

// figure14 reproduces Figure 14: the fraction of accesses served from local
// GPU, remote GPU, and host memory as the cache ratio grows, for PartU,
// UGache and RepU on PA (high skew) and CF (low skew).
func figure14(o Options) (*Result, error) {
	p := platform.ServerC()
	ratios := []float64{0.02, 0.04, 0.06, 0.08, 0.10, 0.12}
	if o.Quick {
		ratios = []float64{0.02, 0.08, 0.12}
	}
	var parts []string
	for _, ds := range []graph.DatasetSpec{graph.PA, graph.CF} {
		t := stats.NewTable(
			fmt.Sprintf("Figure 14: access split (%%), %s, Server C", ds.Name),
			"ratio%", "system", "local", "remote", "host")
		for _, ratio := range ratios {
			for _, spec := range []baselines.Spec{baselines.PartU, baselines.UGache, baselines.RepU} {
				rep, err := runGNN(o, p, spec, ds, "sage", true, ratio)
				if err != nil {
					return nil, err
				}
				t.AddRow(fmt.Sprintf("%.0f", ratio*100), spec.Name,
					fmtPct(rep.HitLocal), fmtPct(rep.HitRemote), fmtPct(rep.HitHost))
			}
		}
		parts = append(parts, t.String())
	}
	parts = append(parts,
		"Paper shape: PA @2%: UGache ~= partition; @8%+: UGache lifts local hit far above\n"+
			"partition's while global hit stays close. CF (low skew): UGache stays\n"+
			"partition-like because sacrificing global hit is unprofitable.\n")
	return &Result{Name: "fig14", Text: joinResults(parts...)}, nil
}

// figure15 reproduces Figure 15: per-source extraction time as the ratio
// grows, with every baseline running UGache's factored extractor (as the
// paper does to isolate the policy).
func figure15(o Options) (*Result, error) {
	p := platform.ServerC()
	ratios := []float64{0.02, 0.04, 0.06, 0.08, 0.10, 0.12}
	if o.Quick {
		ratios = []float64{0.02, 0.08, 0.12}
	}
	var parts []string
	for _, ds := range []graph.DatasetSpec{graph.PA, graph.CF} {
		t := stats.NewTable(
			fmt.Sprintf("Figure 15: per-source extraction time (ms), %s, Server C", ds.Name),
			"ratio%", "system", "local", "remote", "host", "total")
		for _, ratio := range ratios {
			for _, base := range []baselines.Spec{baselines.PartU, baselines.UGache, baselines.RepU} {
				spec := base
				spec.Mechanism = extract.Factored // all adopt UGache's extractor
				rep, err := runGNN(o, p, spec, ds, "sage", true, ratio)
				if err != nil {
					return nil, err
				}
				// Decompose the measured extraction by source using the
				// per-byte effective bandwidths (local can only be
				// estimated under padding, as the paper notes).
				local, remote, host := sourceTimes(p, rep.HitLocal, rep.HitRemote, rep.HitHost,
					rep.UniqueKeysPerIter*float64(entryBytesOf(ds)))
				t.AddRow(fmt.Sprintf("%.0f", ratio*100), base.Name,
					fmtMS(local), fmtMS(remote), fmtMS(host), fmtMS(rep.PerIter.Extract))
			}
		}
		parts = append(parts, t.String())
	}
	parts = append(parts,
		"Paper shape: UGache trades a little host time for local time versus partition;\n"+
			"the remote slice shrinks as replication grows; 2.0x total gain on PA @8%.\n")
	return &Result{Name: "fig15", Text: joinResults(parts...)}, nil
}

func entryBytesOf(ds graph.DatasetSpec) int {
	return ds.Dim * ds.DType.Size()
}

// sourceTimes estimates the per-source extraction time of one GPU from the
// measured access split and total bytes.
func sourceTimes(p *platform.Platform, fLocal, fRemote, fHost, totalBytes float64) (local, remote, host float64) {
	bwLocal, _ := p.EffectiveBW(0, 0)
	bwHost, _ := p.EffectiveBW(0, p.Host())
	var bwRemote float64
	if p.N > 1 {
		per, _ := p.EffectiveBW(0, 1)
		bwRemote = per * float64(p.N-1) // spread across all peers
	} else {
		bwRemote = bwLocal
	}
	local = fLocal * totalBytes / bwLocal
	remote = fRemote * totalBytes / bwRemote
	host = fHost * totalBytes / bwHost
	return
}
