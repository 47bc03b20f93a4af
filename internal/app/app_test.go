package app

import (
	"math"
	"testing"

	"ugache/internal/baselines"
	"ugache/internal/graph"
	"ugache/internal/platform"
	"ugache/internal/workload"
)

// smallGNN builds a quick GNN app.
func smallGNN(t *testing.T, p *platform.Platform, spec baselines.Spec, model string, sup bool) *GNNApp {
	t.Helper()
	ds, err := graph.PA.Build(0.02, 7) // ~22k nodes
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewGNN(GNNConfig{
		P: p, DS: ds, Model: model, Supervised: sup,
		BatchSize: 256, Spec: spec, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestMemoryModel(t *testing.T) {
	p := platform.ServerC()
	m := MemoryModel{MemScale: 0.01}
	cap1 := m.CapacityEntries(p, 512, 0)
	if cap1 <= 0 {
		t.Fatal("no capacity")
	}
	// Resident bytes shrink the cache.
	cap2 := m.CapacityEntries(p, 512, 100<<20)
	if cap2 >= cap1 {
		t.Fatal("resident bytes ignored")
	}
	// Full reservation floors at zero.
	if got := m.CapacityEntries(p, 512, 1<<62); got != 0 {
		t.Fatalf("negative capacity %d", got)
	}
	// Zero-value model normalizes.
	var zero MemoryModel
	if zero.CapacityEntries(p, 512, 0) <= 0 {
		t.Fatal("zero-value model unusable")
	}
}

func TestGNNEndToEnd(t *testing.T) {
	p := platform.ServerC()
	ds, err := graph.PA.Build(0.02, 7)
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewGNN(GNNConfig{
		P: p, DS: ds, Model: "sage", Supervised: true,
		BatchSize: 8, Spec: baselines.UGache, Seed: 1, // small batch: several iterations per epoch
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := a.RunIters(3)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Iterations != 3 || rep.PerIter.Iter() <= 0 {
		t.Fatalf("report %+v", rep)
	}
	if rep.PerIter.Extract <= 0 || rep.PerIter.Dense <= 0 || rep.PerIter.Sample <= 0 {
		t.Fatalf("breakdown %+v", rep.PerIter)
	}
	if rep.EpochSeconds < rep.PerIter.Iter() {
		t.Fatal("epoch extrapolation wrong")
	}
	if rep.UniqueKeysPerIter <= float64(a.Cfg.BatchSize) {
		t.Fatal("sampling did not expand the batch")
	}
	if s := rep.HitLocal + rep.HitRemote + rep.HitHost; math.Abs(s-1) > 1e-9 {
		t.Fatalf("hit fractions sum %g", s)
	}
}

func TestGNNLabShape(t *testing.T) {
	p := platform.ServerC()
	a := smallGNN(t, p, baselines.GNNLab, "sage", true)
	if a.Samplers == 0 || a.Trainers+a.Samplers != p.N {
		t.Fatalf("split %d/%d", a.Trainers, a.Samplers)
	}
	rep, err := a.RunIters(2)
	if err != nil {
		t.Fatal(err)
	}
	// GNNLab pays queue cost, not inline sampling; replication never reads
	// remote GPUs.
	if rep.PerIter.Queue <= 0 || rep.PerIter.Sample != 0 {
		t.Fatalf("breakdown %+v", rep.PerIter)
	}
	if rep.HitRemote != 0 {
		t.Fatalf("replication read remote: %g", rep.HitRemote)
	}
	// Dedicated samplers mean fewer trainers => more iterations per epoch
	// than UGache (with a batch small enough that the epoch has many
	// iterations).
	ds, err := graph.PA.Build(0.02, 7)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(spec baselines.Spec) *GNNApp {
		ap, err := NewGNN(GNNConfig{
			P: p, DS: ds, Model: "sage", Supervised: true,
			BatchSize: 8, Spec: spec, Seed: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		return ap
	}
	if mk(baselines.GNNLab).epochIterations() <= mk(baselines.UGache).epochIterations() {
		t.Fatal("GNNLab should need more iterations with fewer trainers")
	}
}

func TestUnsupervisedReducesSkewAndAddsCost(t *testing.T) {
	p := platform.ServerC()
	sup := smallGNN(t, p, baselines.UGache, "sage", true)
	unsup := smallGNN(t, p, baselines.UGache, "sage", false)
	rs, err := sup.RunIters(2)
	if err != nil {
		t.Fatal(err)
	}
	ru, err := unsup.RunIters(2)
	if err != nil {
		t.Fatal(err)
	}
	if ru.UniqueKeysPerIter <= rs.UniqueKeysPerIter {
		t.Fatal("negative sampling should touch more keys")
	}
}

func TestWholeGraphLaunchFailures(t *testing.T) {
	// Unconnected pairs (Server B).
	ds, err := graph.PA.Build(0.02, 7)
	if err != nil {
		t.Fatal(err)
	}
	_, err = NewGNN(GNNConfig{
		P: platform.ServerB(), DS: ds, Model: "sage", Supervised: true,
		BatchSize: 256, Spec: baselines.WholeGraph, Seed: 1,
	})
	if err == nil {
		t.Fatal("WholeGraph launched on DGX-1")
	}
	// Embeddings exceeding aggregate capacity.
	_, err = NewGNN(GNNConfig{
		P: platform.ServerC(), DS: ds, Model: "sage", Supervised: true,
		BatchSize: 256, Spec: baselines.WholeGraph, CacheRatio: 0.05, Seed: 1,
	})
	if err == nil {
		t.Fatal("WholeGraph launched without full fit")
	}
}

func TestGNNSystemsOrdering(t *testing.T) {
	// UGache's epoch should beat GNNLab's and PartU's on a skewed dataset
	// at a moderate cache ratio (Fig. 10's headline).
	p := platform.ServerC()
	times := map[string]float64{}
	for _, spec := range []baselines.Spec{baselines.GNNLab, baselines.PartU, baselines.UGache} {
		ds, err := graph.PA.Build(0.02, 7)
		if err != nil {
			t.Fatal(err)
		}
		a, err := NewGNN(GNNConfig{
			P: p, DS: ds, Model: "sage", Supervised: true,
			BatchSize: 256, Spec: spec, CacheRatio: 0.08, Seed: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := a.RunIters(3)
		if err != nil {
			t.Fatal(err)
		}
		times[spec.Name] = rep.EpochSeconds
	}
	if !(times["UGache"] < times["GNNLab"]) {
		t.Fatalf("UGache %g not faster than GNNLab %g", times["UGache"], times["GNNLab"])
	}
	if !(times["UGache"] < times["PartU"]) {
		t.Fatalf("UGache %g not faster than PartU %g", times["UGache"], times["PartU"])
	}
}

func TestGNNValidation(t *testing.T) {
	p := platform.ServerC()
	ds, _ := graph.PA.Build(0.01, 7)
	if _, err := NewGNN(GNNConfig{P: p, Model: "sage", BatchSize: 1, Spec: baselines.UGache}); err == nil {
		t.Fatal("nil dataset accepted")
	}
	if _, err := NewGNN(GNNConfig{P: p, DS: ds, Model: "transformer", BatchSize: 1, Spec: baselines.UGache}); err == nil {
		t.Fatal("bad model accepted")
	}
	if _, err := NewGNN(GNNConfig{DS: ds, Model: "sage", BatchSize: 1, Spec: baselines.UGache}); err == nil {
		t.Fatal("nil platform accepted")
	}
}

func TestDLREndToEnd(t *testing.T) {
	p := platform.ServerC()
	ds, err := workload.SYNA.Build(0.01, 3) // 100 tables × 800 entries
	if err != nil {
		t.Fatal(err)
	}
	var keys float64
	for i, spec := range []baselines.Spec{baselines.HPS, baselines.SOK, baselines.UGache} {
		a, err := NewDLR(DLRConfig{
			P: p, DS: ds, Model: "dlrm", BatchSize: 512, Spec: spec,
			CacheRatio: 0.1, Seed: 2,
		})
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		rep, err := a.RunIters(3)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		// A comparison between systems hands every one of them the same
		// requests, whichever ran first on the dataset.
		if i == 0 {
			keys = rep.UniqueKeysPerIter
		} else if rep.UniqueKeysPerIter != keys {
			t.Fatalf("%s read %g unique keys per iteration, HPS %g: not the same requests",
				spec.Name, rep.UniqueKeysPerIter, keys)
		}
		if rep.PerIter.Extract <= 0 || rep.PerIter.Dense <= 0 {
			t.Fatalf("%s breakdown %+v", spec.Name, rep.PerIter)
		}
		if spec.Name == "HPS" && rep.PerIter.Eviction <= 0 {
			t.Fatal("HPS eviction cost missing")
		}
		if spec.Name != "HPS" && rep.PerIter.Eviction != 0 {
			t.Fatalf("%s has eviction cost", spec.Name)
		}
	}
}

func TestDLROrdering(t *testing.T) {
	// UGache < HPS and UGache < SOK per-iteration (Fig. 10 DLR).
	p := platform.ServerC()
	ds, err := workload.SYNA.Build(0.01, 3)
	if err != nil {
		t.Fatal(err)
	}
	iter := map[string]float64{}
	for _, spec := range []baselines.Spec{baselines.HPS, baselines.SOK, baselines.UGache} {
		a, err := NewDLR(DLRConfig{
			P: p, DS: ds, Model: "dlrm", BatchSize: 2048, Spec: spec,
			CacheRatio: 0.08, Seed: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := a.RunIters(3)
		if err != nil {
			t.Fatal(err)
		}
		iter[spec.Name] = rep.PerIter.Iter()
	}
	if !(iter["UGache"] < iter["HPS"] && iter["UGache"] < iter["SOK"]) {
		t.Fatalf("ordering violated: %v", iter)
	}
}

func TestDLRDCN(t *testing.T) {
	p := platform.ServerA()
	ds, err := workload.CR.Build(0.005, 3)
	if err != nil {
		t.Fatal(err)
	}
	reps := map[string]*Report{}
	for _, model := range []string{"dlrm", "dcn"} {
		a, err := NewDLR(DLRConfig{
			P: p, DS: ds, Model: model, BatchSize: 256, Spec: baselines.UGache,
			CacheRatio: 0.05, Seed: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		if reps[model], err = a.RunIters(2); err != nil {
			t.Fatal(err)
		}
	}
	if reps["dcn"].PerIter.Dense <= 0 || reps["dcn"].PerIter.Dense == reps["dlrm"].PerIter.Dense {
		t.Fatalf("dense time: dcn %g, dlrm %g", reps["dcn"].PerIter.Dense, reps["dlrm"].PerIter.Dense)
	}
	// Extraction never sees the dense model.
	if reps["dcn"].PerIter.Extract != reps["dlrm"].PerIter.Extract {
		t.Fatalf("extraction differs by dense model: dcn %g, dlrm %g",
			reps["dcn"].PerIter.Extract, reps["dlrm"].PerIter.Extract)
	}
}

func TestDLRValidation(t *testing.T) {
	p := platform.ServerA()
	ds, _ := workload.SYNA.Build(0.01, 3)
	if _, err := NewDLR(DLRConfig{P: p, Model: "dlrm", Spec: baselines.UGache}); err == nil {
		t.Fatal("nil dataset accepted")
	}
	if _, err := NewDLR(DLRConfig{P: p, DS: ds, Model: "bert", Spec: baselines.UGache}); err == nil {
		t.Fatal("bad model accepted")
	}
}

func TestSingleGPUTable1Shape(t *testing.T) {
	// Table 1: single A100, unsupervised SAGE; with a cache the extraction
	// time drops and most bytes come from GPU memory.
	single, err := platform.New(platform.Config{
		Name: "1xA100", Kind: platform.SwitchBased, GPU: platform.A100x80,
		N: 1, PCIeBW: 25e9, DRAMBW: 100e9, SwitchPortBW: 270e9,
	})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := graph.MAG.Build(0.005, 7)
	if err != nil {
		t.Fatal(err)
	}
	run := func(ratio float64) *Report {
		a, err := NewGNN(GNNConfig{
			P: single, DS: ds, Model: "sage", Supervised: false,
			BatchSize: 256, Spec: baselines.UGache, CacheRatio: ratio, Seed: 9,
		})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := a.RunIters(2)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	noCache := run(1e-9)
	cached := run(0.3)
	if cached.PerIter.Extract >= noCache.PerIter.Extract {
		t.Fatalf("cache did not help: %g vs %g", cached.PerIter.Extract, noCache.PerIter.Extract)
	}
	if noCache.HitLocal > 0.01 {
		t.Fatalf("no-cache run hit cache: %g", noCache.HitLocal)
	}
	if cached.HitLocal < 0.5 {
		t.Fatalf("cached run local hit %g too low", cached.HitLocal)
	}
}
