package app

import (
	"fmt"
	"math"

	"ugache/internal/baselines"
	"ugache/internal/extract"
	"ugache/internal/graph"
	"ugache/internal/platform"
	"ugache/internal/rng"
	"ugache/internal/workload"
)

// GNNConfig describes one GNN training run (paper §8.1): a model
// (GCN 3-hop {15,10,5} or GraphSAGE 2-hop {25,10}, supervised or
// unsupervised with negative sampling), a dataset, a platform, and the
// system under test.
type GNNConfig struct {
	P  *platform.Platform
	DS *graph.Dataset
	// Model is "gcn" or "sage".
	Model      string
	Supervised bool
	// BatchSize is the per-GPU seed batch (default 8192, as in the paper).
	BatchSize int
	Spec      baselines.Spec
	// CacheRatio overrides the memory-derived capacity when > 0 (the
	// ratio-sweep figures).
	CacheRatio float64
	Mem        MemoryModel
	// DegreeHotness uses the vertex in-degree proxy of §6.1 (PaGraph-style)
	// instead of presampling.
	DegreeHotness bool
	Seed          uint64
}

// GNNApp is a built GNN training pipeline.
type GNNApp struct {
	pipeline
	Cfg      GNNConfig
	Trainers int
	Samplers int

	sampler *graph.Sampler
	batches [][]int32
	nextB   int
	r       *rng.Rand
	// edges and dense are the iteration in flight's adjacency entries
	// sampled and dense seconds: next sets them, terms reads them.
	edges int64
	dense float64
}

// gnnHidden is the hidden width of both GNN models, the value every figure
// was produced with.
const gnnHidden = 256

// gnnProfileBatches is the presampled batches that measure GNN hotness (the
// "first epoch profiling" of §6.1).
const gnnProfileBatches = 32

func gnnFanouts(model string) ([]int, error) {
	switch model {
	case "gcn":
		return []int{15, 10, 5}, nil // 3-hop (§8.1)
	case "sage":
		return []int{25, 10}, nil // 2-hop (§8.1)
	default:
		return nil, fmt.Errorf("app: unknown GNN model %q", model)
	}
}

// NewGNN builds the pipeline: size the cache, presample hotness, solve the
// policy, fill the cache.
func NewGNN(cfg GNNConfig) (*GNNApp, error) {
	if cfg.P == nil || cfg.DS == nil {
		return nil, fmt.Errorf("app: a platform and a dataset are required")
	}
	cfg.BatchSize = batchOr(cfg.BatchSize)
	fanouts, err := gnnFanouts(cfg.Model)
	if err != nil {
		return nil, err
	}
	negative := 0
	if !cfg.Supervised {
		// Unsupervised GraphSAGE: binary classification against negative
		// samples, which flattens the access skew (§8.2).
		negative = 3
	}
	r := rng.New(cfg.Seed).Split("gnn-" + cfg.DS.Spec.Name)
	sampler, err := graph.NewSampler(cfg.DS.G, fanouts, negative, r.Split("sampler"))
	if err != nil {
		return nil, err
	}

	// Sampler/trainer split (GNNLab dedicates ~1/4 of GPUs to sampling).
	trainers, samplers := cfg.P.N, 0
	if cfg.Spec.DedicatedSamplers && cfg.P.N > 1 {
		samplers = max(cfg.P.N/4, 1)
		trainers = cfg.P.N - samplers
	}

	n := int64(cfg.DS.G.NumNodes())
	resident := cfg.DS.VolumeG()
	if cfg.Spec.ReclaimGraphMemory {
		resident = 0 // graph lives on the dedicated sampler GPUs
	}
	// Hotness (§6.1): either presample the first epoch's batches (cycling
	// across epochs when one epoch has fewer batches than the budget — the
	// neighbour sampling varies per batch, so extra epochs keep adding
	// information), or use the vertex-degree proxy.
	profile := func() (workload.Hotness, error) {
		if cfg.DegreeHotness {
			// In-degree approximates how often a vertex is drawn as a
			// sampled neighbour. One probe batch scales the proxy to
			// keys/iteration.
			indeg := make([]int64, n)
			for _, tgt := range cfg.DS.G.Indices {
				indeg[tgt]++
			}
			probe := sampler.SampleBatch(graph.EpochBatches(cfg.DS.Train, cfg.BatchSize, r.Split("probe"))[0])
			return workload.DegreeHotness(indeg, float64(len(probe))), nil
		}
		profR := r.Split("profile")
		var rec [][]int64
		for epoch := 0; len(rec) < gnnProfileBatches; epoch++ {
			for _, b := range graph.EpochBatches(cfg.DS.Train, cfg.BatchSize, profR.Split(fmt.Sprintf("e%d", epoch))) {
				rec = append(rec, keys64(sampler.SampleBatch(b)))
				if len(rec) == gnnProfileBatches {
					break
				}
			}
		}
		return workload.ProfileBatches(n, rec)
	}
	pl, err := build(cfg.P, cfg.Spec, cfg.CacheRatio, cfg.Mem, resident, n, cfg.DS.Table.EntryBytes(), profile)
	if err != nil {
		return nil, err
	}
	return &GNNApp{
		pipeline: pl, Cfg: cfg,
		Trainers: trainers, Samplers: samplers,
		sampler: sampler,
		batches: graph.EpochBatches(cfg.DS.Train, cfg.BatchSize, r.Split("epoch")),
		r:       r,
	}, nil
}

// keys64 widens sampled vertex IDs to embedding keys.
func keys64(keys []int32) []int64 {
	kb := make([]int64, len(keys))
	for i, k := range keys {
		kb[i] = int64(k)
	}
	return kb
}

// epochIterations returns the iterations of a full epoch on this system
// (the training set split across trainer GPUs).
func (a *GNNApp) epochIterations() int {
	per := a.Cfg.BatchSize * a.Trainers
	return (len(a.Cfg.DS.Train) + per - 1) / per
}

// RunIters simulates up to maxIters iterations and extrapolates the epoch.
func (a *GNNApp) RunIters(maxIters int) (*Report, error) {
	epochIters := a.epochIterations()
	if epochIters == 0 {
		return nil, fmt.Errorf("app: empty training set")
	}
	return a.run(a, min(maxIters, epochIters), epochIters, a.Trainers)
}

// next samples each trainer's seed batch and prices its dense compute: the
// per-hop frontiers feed the layers innermost first (all sampled nodes
// transform in layer 0).
func (a *GNNApp) next() *extract.Batch {
	b := &extract.Batch{Keys: make([][]int64, a.Cfg.P.N)}
	a.edges, a.dense = 0, 0
	for g := 0; g < a.Trainers; g++ {
		b.Keys[g] = keys64(a.sampler.SampleBatch(a.nextSeedBatch()))
		a.edges += a.sampler.LastEdgesTouched
		a.dense = math.Max(a.dense, a.denseTime(a.sampler.LastHopCounts))
	}
	return b
}

// terms prices sampling, inline on the trainers or, with dedicated
// samplers, as the host-queue transfer the trainers wait on.
func (a *GNNApp) terms(b *extract.Batch, res *extract.Result) Breakdown {
	sample := float64(a.edges) / sampleRate / float64(a.Trainers)
	if !a.Cfg.Spec.DedicatedSamplers {
		return Breakdown{Sample: sample, Dense: a.dense}
	}
	// Dedicated samplers pipeline the sampling itself; the cost that
	// remains on the critical path is the host-queue transfer of the
	// sampled subgraph plus any throughput shortfall.
	nodes := 0.0
	for g := 0; g < a.Trainers; g++ {
		nodes += float64(len(b.Keys[g]))
	}
	queue := (nodes*4 + float64(a.edges)*8) / a.Cfg.P.PCIeBW
	demand := sample * float64(a.Trainers) / float64(max(a.Samplers, 1))
	if overlap := res.Time + a.dense; demand > overlap {
		queue += demand - overlap
	}
	return Breakdown{Queue: queue, Dense: a.dense}
}

func (a *GNNApp) nextSeedBatch() []int32 {
	if a.nextB >= len(a.batches) {
		a.nextB = 0
		a.batches = graph.EpochBatches(a.Cfg.DS.Train, a.Cfg.BatchSize, a.r.Split("reshuffle"))
	}
	b := a.batches[a.nextB]
	a.nextB++
	return b
}

// denseTime prices one GPU's dense compute for a batch. In sampled GNN
// training the deepest hop's raw embeddings are *aggregated* into their
// parents before any dense transform, so layer l's matmul runs over the
// nodes within hop ≤ (hops−1−l) — not over every sampled node. (That is
// why the paper's Table 1 shows a 113 ms embedding layer against a 10 ms
// MLP: extraction touches the million-node frontier, dense compute only
// the inner hops.)
func (a *GNNApp) denseTime(hopCounts []int) float64 {
	hops := len(a.sampler.Fanouts)
	// hopCounts: [seeds, hop1, ..., hopK (, negatives)].
	negatives := 0
	if !a.Cfg.Supervised && len(hopCounts) > hops+1 {
		negatives = hopCounts[len(hopCounts)-1]
	}
	dims := []int{a.Cfg.DS.Table.Dim, gnnHidden, gnnHidden}
	layers := len(dims) - 1
	nodes := make([]int, layers)
	for l := 0; l < layers; l++ {
		// Layer l transforms nodes in hops [0, hops-1-l].
		upTo := hops - 1 - l
		cnt := 0
		for i := 0; i <= upTo && i < len(hopCounts) && i <= hops; i++ {
			cnt += hopCounts[i]
		}
		if upTo < 0 {
			cnt = hopCounts[0] // seeds only
		}
		if l == 0 {
			// Negative samples are embedded once for the loss.
			cnt += negatives
		}
		nodes[l] = cnt
	}
	flops, kernels := gnnCost(a.Cfg.Model == "sage", dims, nodes)
	if !a.Cfg.Supervised {
		flops *= 1.3 // link-prediction loss over positive/negative pairs
	}
	return denseSeconds(a.Cfg.P.GPU, flops, kernels)
}
