package bench

import (
	"fmt"

	"ugache/internal/baselines"
	"ugache/internal/extract"
	"ugache/internal/graph"
	"ugache/internal/platform"
	"ugache/internal/stats"
	"ugache/internal/workload"
)

func init() {
	register("fig4", "extraction time: message vs peer vs UGache (DLRM on CR and SYN-A)", matrix(figure4))
	register("fig10", "end-to-end time: all systems × servers × models × datasets", matrix(figure10))
	register("fig11", "embedding extraction time per iteration (same matrix + RepU/PartU)", matrix(figure11))
	register("fig13", "PCIe/NVLink utilization with and without FEM (Server C)", matrix(figure13))
}

// figure4 reproduces Figure 4: DLR inference extraction time under
// message-based, naive peer-based, and UGache's factored extraction on the
// 4×V100 and 8×A100 servers, with Criteo and the Zipfian synthetic.
func figure4(o Options) (*Result, error) {
	servers := []*platform.Platform{platform.ServerA(), platform.ServerC()}
	datasets := []workload.DLRSpec{workload.CR, workload.SYNA}
	var parts []string
	for _, ds := range datasets {
		t := stats.NewTable(fmt.Sprintf("Figure 4: DLRM extraction time (ms), %s", ds.Name),
			"server", "Message", "Peer", "UGache")
		for _, p := range servers {
			var row []string
			row = append(row, p.Name)
			for _, spec := range []baselines.Spec{baselines.SOK, baselines.PartU, baselines.UGache} {
				rep, err := runDLR(o, p, spec, ds, "dlrm", 0)
				if err != nil {
					return nil, err
				}
				row = append(row, fmtMS(rep.PerIter.Extract))
			}
			t.AddRow(row...)
		}
		parts = append(parts, t.String())
	}
	parts = append(parts, "Paper shape: peer < message; UGache < peer (Fig. 4 gaps ~1.3-2x).\n")
	return &Result{Name: "fig4", Text: joinResults(parts...)}, nil
}

// gnnWorkloads enumerates Fig. 10's GNN configurations.
func gnnWorkloads(o Options) []struct {
	Model string
	Sup   bool
	Label string
} {
	all := []struct {
		Model string
		Sup   bool
		Label string
	}{
		{"gcn", true, "GCN"},
		{"sage", true, "SAGE Sup."},
		{"sage", false, "SAGE Unsup."},
	}
	if o.Quick {
		return all[1:2]
	}
	return all
}

func gnnDatasetsFor(o Options) []graph.DatasetSpec {
	if o.Quick {
		return []graph.DatasetSpec{graph.PA}
	}
	return graph.GNNDatasets
}

func dlrDatasetsFor(o Options) []workload.DLRSpec {
	if o.Quick {
		return []workload.DLRSpec{workload.SYNA}
	}
	return workload.DLRDatasets
}

func dlrModelsFor(o Options) []string {
	if o.Quick {
		return []string{"dlrm"}
	}
	return []string{"dlrm", "dcn"}
}

// figure10 reproduces Figure 10: end-to-end epoch time (GNN) and iteration
// time (DLR) for every system × server × model × dataset. WholeGraph-style
// launch failures render as "fail" (the paper's PartU exists precisely to
// cover them).
func figure10(o Options) (*Result, error) {
	var parts []string
	for _, p := range serverSet(o) {
		t := stats.NewTable(fmt.Sprintf("Figure 10(a): GNN epoch time (s), %s", p.Name),
			"workload", "dataset", "GNNLab", "PartU", "UGache")
		for _, w := range gnnWorkloads(o) {
			for _, ds := range gnnDatasetsFor(o) {
				row := []string{w.Label, ds.Name}
				for _, spec := range baselines.GNNSystems {
					rep, err := runGNN(o, p, spec, ds, w.Model, w.Sup, 0)
					if err != nil {
						row = append(row, "fail")
						continue
					}
					row = append(row, fmt.Sprintf("%.4f", rep.EpochSeconds))
				}
				t.AddRow(row...)
			}
		}
		parts = append(parts, t.String())
	}
	for _, p := range serverSet(o) {
		t := stats.NewTable(fmt.Sprintf("Figure 10(b): DLR iteration time (ms), %s", p.Name),
			"model", "dataset", "HPS", "SOK", "UGache")
		for _, model := range dlrModelsFor(o) {
			for _, ds := range dlrDatasetsFor(o) {
				row := []string{model, ds.Name}
				for _, spec := range baselines.DLRSystems {
					rep, err := runDLR(o, p, spec, ds, model, 0)
					if err != nil {
						row = append(row, "fail")
						continue
					}
					row = append(row, fmtMS(rep.PerIter.Iter()))
				}
				t.AddRow(row...)
			}
		}
		parts = append(parts, t.String())
	}
	parts = append(parts,
		"Paper shape: UGache fastest everywhere except near-parity when host extraction\n"+
			"dominates (4xV100 or MAG); avg 2.21x over GNNLab, 1.33x over partition systems,\n"+
			"1.51x over HPS, 2.07x over SOK.\n")
	return &Result{Name: "fig10", Text: joinResults(parts...)}, nil
}

// figure11 reproduces Figure 11: the embedding-extraction slice of every
// iteration, adding RepU and PartU to the DLR comparison as the paper does.
func figure11(o Options) (*Result, error) {
	dlrSpecs := []baselines.Spec{baselines.RepU, baselines.PartU, baselines.UGache, baselines.HPS, baselines.SOK}
	var parts []string
	for _, p := range serverSet(o) {
		t := stats.NewTable(fmt.Sprintf("Figure 11(a): GNN extraction time (ms), %s", p.Name),
			"workload", "dataset", "GNNLab", "PartU", "UGache")
		for _, w := range gnnWorkloads(o) {
			for _, ds := range gnnDatasetsFor(o) {
				row := []string{w.Label, ds.Name}
				for _, spec := range baselines.GNNSystems {
					rep, err := runGNN(o, p, spec, ds, w.Model, w.Sup, 0)
					if err != nil {
						row = append(row, "fail")
						continue
					}
					row = append(row, fmtMS(rep.PerIter.Extract))
				}
				t.AddRow(row...)
			}
		}
		parts = append(parts, t.String())
	}
	for _, p := range serverSet(o) {
		t := stats.NewTable(fmt.Sprintf("Figure 11(b): DLR extraction time (ms), %s", p.Name),
			"model", "dataset", "RepU", "PartU", "UGache", "HPS", "SOK")
		specs := dlrSpecs
		for _, model := range dlrModelsFor(o) {
			for _, ds := range dlrDatasetsFor(o) {
				row := []string{model, ds.Name}
				for _, spec := range specs {
					rep, err := runDLR(o, p, spec, ds, model, 0)
					if err != nil {
						row = append(row, "fail")
						continue
					}
					// HPS's LRU maintenance is part of its extraction path.
					row = append(row, fmtMS(rep.PerIter.Extract+rep.PerIter.Eviction))
				}
				t.AddRow(row...)
			}
		}
		parts = append(parts, t.String())
	}
	parts = append(parts,
		"Paper shape: UGache 3.57x over GNNLab and 2.62x over WholeGraph in extraction;\n"+
			"RepU/PartU land between their HPS/SOK ancestors and UGache.\n")
	return &Result{Name: "fig11", Text: joinResults(parts...)}, nil
}

// figure13 reproduces Figure 13: PCIe and NVLink utilization during
// extraction with and without the factored extraction mechanism, on Server
// C, for GCN (CF, MAG) and DLRM (CR, SYN-A).
func figure13(o Options) (*Result, error) {
	p := platform.ServerC()
	type cfg struct {
		label string
		run   func(spec baselines.Spec) (float64, float64, error)
	}
	var cfgs []cfg
	for _, ds := range []graph.DatasetSpec{graph.CF, graph.MAG} {
		ds := ds
		cfgs = append(cfgs, cfg{"GCN/" + ds.Name, func(spec baselines.Spec) (float64, float64, error) {
			rep, err := runGNN(o, p, spec, ds, "gcn", true, 0)
			if err != nil {
				return 0, 0, err
			}
			return rep.LinkUtilPCIe, rep.LinkUtilNVLink, nil
		}})
	}
	for _, ds := range []workload.DLRSpec{workload.CR, workload.SYNA} {
		ds := ds
		cfgs = append(cfgs, cfg{"DLRM/" + ds.Name, func(spec baselines.Spec) (float64, float64, error) {
			rep, err := runDLR(o, p, spec, ds, "dlrm", 0)
			if err != nil {
				return 0, 0, err
			}
			return rep.LinkUtilPCIe, rep.LinkUtilNVLink, nil
		}})
	}
	t := stats.NewTable("Figure 13: link utilization during extraction, Server C",
		"workload", "PCIe w/o FEM", "PCIe w/ FEM", "NVLink w/o FEM", "NVLink w/ FEM")
	// Same UGache cache policy; only the mechanism changes, as in the paper.
	withFEM := baselines.UGache
	withoutFEM := baselines.UGache.WithMechanism(extract.PeerRandom)
	for _, c := range cfgs {
		pOff, nOff, err := c.run(withoutFEM)
		if err != nil {
			return nil, err
		}
		pOn, nOn, err := c.run(withFEM)
		if err != nil {
			return nil, err
		}
		t.AddRow(c.label, fmtPct(pOff), fmtPct(pOn), fmtPct(nOff), fmtPct(nOn))
	}
	return &Result{Name: "fig13", Text: t.String() +
		"\nPaper shape: FEM lifts PCIe ~1.9x and NVLink ~3.5x on average; CF/GCN change\n" +
		"is small (little non-local traffic at high cache ratio).\n"}, nil
}
