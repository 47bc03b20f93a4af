package app

import (
	"fmt"
	"math"

	"ugache/internal/baselines"
	"ugache/internal/core"
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
	// ProfileBatches presamples this many batches for hotness (default 32,
	// the "first epoch profiling" of §6.1).
	ProfileBatches int
	// DegreeHotness uses the vertex in-degree proxy of §6.1 (PaGraph-style)
	// instead of presampling.
	DegreeHotness bool
	Seed          uint64
}

// GNNApp is a built GNN training pipeline.
type GNNApp struct {
	Cfg      GNNConfig
	Sys      *core.System
	Trainers int
	Samplers int

	sampler *graph.Sampler
	batches [][]int32
	nextB   int
	r       *rng.Rand
	scratch map[int64]struct{}
}

// gnnHidden is the hidden width of both GNN models, the value every figure
// was produced with.
const gnnHidden = 256

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

// NewGNN builds the pipeline: presample hotness, size the cache, solve the
// policy, fill the cache.
func NewGNN(cfg GNNConfig) (*GNNApp, error) {
	if err := validateCommon(cfg.P, batchOr(cfg.BatchSize)); err != nil {
		return nil, err
	}
	if cfg.DS == nil {
		return nil, fmt.Errorf("app: dataset is required")
	}
	cfg.BatchSize = batchOr(cfg.BatchSize)
	if cfg.ProfileBatches <= 0 {
		cfg.ProfileBatches = 32
	}
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
		samplers = cfg.P.N / 4
		if samplers < 1 {
			samplers = 1
		}
		trainers = cfg.P.N - samplers
	}

	// Capacity.
	n := int64(cfg.DS.G.NumNodes())
	entryBytes := cfg.DS.Table.EntryBytes()
	var capacity int64
	if cfg.CacheRatio > 0 {
		capacity = ratioEntries(cfg.CacheRatio, n)
	} else {
		resident := cfg.DS.VolumeG()
		if cfg.Spec.ReclaimGraphMemory {
			resident = 0 // graph lives on the dedicated sampler GPUs
		}
		capacity = cfg.Mem.CapacityEntries(cfg.P, entryBytes, resident)
	}
	if capacity > n {
		capacity = n
	}
	if err := cfg.Spec.Launchable(cfg.P, n, capacity); err != nil {
		return nil, err
	}

	// Hotness (§6.1): either presample the first epoch's batches (cycling
	// across epochs when one epoch has fewer batches than the budget — the
	// neighbour sampling varies per batch, so extra epochs keep adding
	// information), or use the vertex-degree proxy.
	var hot workload.Hotness
	if cfg.DegreeHotness {
		// In-degree approximates how often a vertex is drawn as a sampled
		// neighbour. One probe batch scales the proxy to keys/iteration.
		indeg := make([]int64, n)
		for _, tgt := range cfg.DS.G.Indices {
			indeg[tgt]++
		}
		probe := sampler.SampleBatch(graph.EpochBatches(cfg.DS.Train, cfg.BatchSize, r.Split("probe"))[0])
		hot = workload.DegreeHotness(indeg, float64(len(probe)))
	} else {
		profR := r.Split("profile")
		var rec [][]int64
		for epoch := 0; len(rec) < cfg.ProfileBatches; epoch++ {
			for _, b := range graph.EpochBatches(cfg.DS.Train, cfg.BatchSize, profR.Split(fmt.Sprintf("e%d", epoch))) {
				keys := sampler.SampleBatch(b)
				kb := make([]int64, len(keys))
				for i, k := range keys {
					kb[i] = int64(k)
				}
				rec = append(rec, kb)
				if len(rec) == cfg.ProfileBatches {
					break
				}
			}
		}
		var err error
		hot, err = workload.ProfileBatches(n, rec)
		if err != nil {
			return nil, err
		}
	}

	sys, err := core.Build(core.Config{
		Platform:           cfg.P,
		Hotness:            hot,
		EntryBytes:         entryBytes,
		CacheEntriesPerGPU: max(capacity, 1),
		Policy:             cfg.Spec.Policy,
		Mechanism:          cfg.Spec.Mechanism,
	})
	if err != nil {
		return nil, err
	}
	return &GNNApp{
		Cfg: cfg, Sys: sys,
		Trainers: trainers, Samplers: samplers,
		sampler: sampler,
		batches: graph.EpochBatches(cfg.DS.Train, cfg.BatchSize, r.Split("epoch")),
		r:       r,
		scratch: make(map[int64]struct{}),
	}, nil
}

func batchOr(b int) int {
	if b <= 0 {
		return 8192
	}
	return b
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
	iters := epochIters
	if maxIters > 0 && iters > maxIters {
		iters = maxIters
	}
	if iters == 0 {
		return nil, fmt.Errorf("app: empty training set")
	}
	var sum Breakdown
	var keysSum float64
	var hitL, hitR, hitH float64
	var utilP, utilN float64
	for it := 0; it < iters; it++ {
		b := &extract.Batch{Keys: make([][]int64, a.Cfg.P.N)}
		var sampleSec, denseSec float64
		var edges int64
		for g := 0; g < a.Trainers; g++ {
			seeds := a.nextSeedBatch()
			keys := a.sampler.SampleBatch(seeds)
			edges += a.sampler.LastEdgesTouched
			kb := make([]int64, len(keys))
			for i, k := range keys {
				kb[i] = int64(k)
			}
			b.Keys[g] = kb
			keysSum += float64(len(kb))
			// Dense compute: per-hop frontiers feed the layers innermost
			// first (all sampled nodes transform in layer 0).
			denseSec = math.Max(denseSec, a.denseTime(a.sampler.LastHopCounts))
		}
		res, err := a.Sys.ExtractBatch(b, nil)
		if err != nil {
			return nil, err
		}
		sampleSec = float64(edges) / sampleRate / float64(max(a.Trainers, 1))
		var queueSec float64
		if a.Cfg.Spec.DedicatedSamplers {
			// Dedicated samplers pipeline the sampling itself; the cost
			// that remains on the critical path is the host-queue transfer
			// of the sampled subgraph plus any throughput shortfall.
			nodes := 0.0
			for g := 0; g < a.Trainers; g++ {
				nodes += float64(len(b.Keys[g]))
			}
			bytes := nodes*4 + float64(edges)*8
			queueSec = bytes / a.Cfg.P.PCIeBW
			demand := sampleSec * float64(a.Trainers) / float64(max(a.Samplers, 1))
			overlap := res.Time + denseSec
			if demand > overlap {
				queueSec += demand - overlap
			}
			sampleSec = 0
		}
		evict := a.evictionTime(res, b)
		sum.Sample += sampleSec
		sum.Queue += queueSec
		sum.Extract += res.Time
		sum.Eviction += evict
		sum.Dense += denseSec
		utilP += res.Utilization(a.Cfg.P, a.Cfg.P.PCIeIDs())
		utilN += res.Utilization(a.Cfg.P, a.Cfg.P.NVLinkIDs())
		l, r2, h := hits(res, a.Sys.Cache.EntryBytes)
		hitL += l
		hitR += r2
		hitH += h
	}
	inv := 1 / float64(iters)
	per := Breakdown{
		Sample: sum.Sample * inv, Queue: sum.Queue * inv, Extract: sum.Extract * inv,
		Eviction: sum.Eviction * inv, Dense: sum.Dense * inv,
	}
	n := int64(a.Cfg.DS.G.NumNodes())
	capUsed := a.Sys.Placement().CapacityUsed()
	tot := hitL + hitR + hitH
	if tot == 0 {
		tot = 1
	}
	return &Report{
		System: a.Cfg.Spec.Name, App: "gnn",
		Dataset: a.Cfg.DS.Spec.Name, Platform: a.Cfg.P.Name,
		Iterations: iters, PerIter: per,
		EpochSeconds:      per.Iter() * float64(epochIters),
		EpochIters:        epochIters,
		CapacityEntries:   capUsed[0],
		CacheRatio:        float64(capUsed[0]) / float64(n),
		UniqueKeysPerIter: keysSum / float64(iters) / float64(max(a.Trainers, 1)),
		HitLocal:          hitL / tot, HitRemote: hitR / tot, HitHost: hitH / tot,
		LinkUtilPCIe: utilP * inv, LinkUtilNVLink: utilN * inv,
	}, nil
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

func (a *GNNApp) evictionTime(res *extract.Result, b *extract.Batch) float64 {
	if a.Cfg.Spec.EvictionFactor <= 1 && a.Cfg.Spec.EvictionPerKey <= 0 {
		return 0
	}
	keys := 0
	for _, k := range b.Keys {
		if len(k) > keys {
			keys = len(k)
		}
	}
	t := float64(keys) * a.Cfg.Spec.EvictionPerKey
	if a.Cfg.Spec.EvictionFactor > 1 {
		t += res.Time * (a.Cfg.Spec.EvictionFactor - 1)
	}
	return t
}
