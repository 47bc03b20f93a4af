package app

import (
	"fmt"

	"ugache/internal/baselines"
	"ugache/internal/core"
	"ugache/internal/extract"
	"ugache/internal/platform"
	"ugache/internal/rng"
	"ugache/internal/workload"
)

// DLRConfig describes one DLR inference run (paper §8.1): DLRM or DCN over
// a multi-table dataset, data-parallel across GPUs.
type DLRConfig struct {
	P  *platform.Platform
	DS *workload.DLRDataset
	// Model is "dlrm" or "dcn".
	Model string
	// BatchSize is per-GPU inference samples per iteration (default 8192).
	BatchSize int
	Spec      baselines.Spec
	// CacheRatio overrides the memory-derived capacity when > 0.
	CacheRatio float64
	Mem        MemoryModel
	// ProfileBatches warms hotness statistics (default 96; the paper warms
	// 1000 iterations — our generator is stationary so fewer suffice).
	ProfileBatches int
	// LocalityDispatch routes each inference sample to the GPU whose cache
	// covers most of its keys (the locality-aware dispatching of HET-GMP,
	// §3.1 [31]) instead of random data-parallel assignment. The paper
	// argues this helps partition caches but cannot overcome the long-tail
	// effect; the ablate-dispatch experiment measures exactly that.
	LocalityDispatch bool
	Seed             uint64
}

// DLRApp is a built DLR inference pipeline.
type DLRApp struct {
	Sys *core.System

	cfg DLRConfig
	// r is the app's own request stream, derived from the seed and the
	// dataset's name alone: every system of a comparison reads the same
	// requests, whatever ran before it.
	r *rng.Rand
	// dense is the seconds of one iteration's dense part: a function of the
	// model's shape and the batch size alone.
	dense   float64
	scratch map[int64]struct{}
}

// NewDLR builds the pipeline.
func NewDLR(cfg DLRConfig) (*DLRApp, error) {
	if err := validateCommon(cfg.P, batchOr(cfg.BatchSize)); err != nil {
		return nil, err
	}
	if cfg.DS == nil {
		return nil, fmt.Errorf("app: dataset is required")
	}
	cfg.BatchSize = batchOr(cfg.BatchSize)
	if cfg.ProfileBatches <= 0 {
		cfg.ProfileBatches = 96
	}
	if cfg.Model != "dlrm" && cfg.Model != "dcn" {
		return nil, fmt.Errorf("app: unknown DLR model %q", cfg.Model)
	}
	n := cfg.DS.NumEntries()
	entryBytes := cfg.DS.MT.MaxEntryBytes()
	var capacity int64
	if cfg.CacheRatio > 0 {
		capacity = ratioEntries(cfg.CacheRatio, n)
	} else {
		capacity = cfg.Mem.CapacityEntries(cfg.P, entryBytes, 0)
	}
	if capacity > n {
		capacity = n
	}
	if err := cfg.Spec.Launchable(cfg.P, n, capacity); err != nil {
		return nil, err
	}

	// Warm-up profiling (the paper warms the first 1000 iterations).
	reqs := rng.New(cfg.Seed).Split("dlr-" + cfg.DS.Spec.Name)
	var rec [][]int64
	for i := 0; i < cfg.ProfileBatches; i++ {
		rec = append(rec, cfg.DS.GenBatch(reqs, cfg.BatchSize))
	}
	hot, err := workload.ProfileBatches(n, rec)
	if err != nil {
		return nil, err
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
	cost := dlrmCost
	if cfg.Model == "dcn" {
		cost = dcnCost
	}
	flops, kernels := cost(cfg.BatchSize, cfg.DS.KeysPerSample(), cfg.DS.Spec.Dim)
	return &DLRApp{
		Sys: sys, cfg: cfg, r: reqs,
		dense:   denseSeconds(cfg.P.GPU, flops, kernels),
		scratch: make(map[int64]struct{}),
	}, nil
}

// RunIters simulates n inference iterations and reports the mean.
func (a *DLRApp) RunIters(iters int) (*Report, error) {
	if iters <= 0 {
		iters = 1
	}
	var sum Breakdown
	var keysSum, hitL, hitR, hitH, utilP, utilN float64
	for it := 0; it < iters; it++ {
		b := &extract.Batch{Keys: make([][]int64, a.cfg.P.N)}
		if a.cfg.LocalityDispatch {
			a.dispatchBatch(b)
			for g := range b.Keys {
				keysSum += float64(len(b.Keys[g]))
			}
		} else {
			for g := 0; g < a.cfg.P.N; g++ {
				raw := a.cfg.DS.GenBatch(a.r, a.cfg.BatchSize)
				b.Keys[g] = workload.Unique(raw, a.scratch)
				keysSum += float64(len(b.Keys[g]))
			}
		}
		res, err := a.Sys.ExtractBatch(b, nil)
		if err != nil {
			return nil, err
		}
		evict := a.evictionTime(res, b)
		sum.Extract += res.Time
		sum.Eviction += evict
		sum.Dense += a.dense
		utilP += res.Utilization(a.cfg.P, a.cfg.P.PCIeIDs())
		utilN += res.Utilization(a.cfg.P, a.cfg.P.NVLinkIDs())
		l, r, h := hits(res, a.Sys.Cache.EntryBytes)
		hitL += l
		hitR += r
		hitH += h
	}
	inv := 1 / float64(iters)
	per := Breakdown{
		Extract: sum.Extract * inv, Eviction: sum.Eviction * inv, Dense: sum.Dense * inv,
	}
	n := a.cfg.DS.NumEntries()
	capUsed := a.Sys.Placement().CapacityUsed()
	tot := hitL + hitR + hitH
	if tot == 0 {
		tot = 1
	}
	return &Report{
		System: a.cfg.Spec.Name, App: "dlr",
		Dataset: a.cfg.DS.Spec.Name, Platform: a.cfg.P.Name,
		Iterations: iters, PerIter: per,
		EpochSeconds:      per.Iter(),
		CapacityEntries:   capUsed[0],
		CacheRatio:        float64(capUsed[0]) / float64(n),
		UniqueKeysPerIter: keysSum * inv / float64(a.cfg.P.N),
		HitLocal:          hitL / tot, HitRemote: hitR / tot, HitHost: hitH / tot,
		LinkUtilPCIe: utilP * inv, LinkUtilNVLink: utilN * inv,
	}, nil
}

func (a *DLRApp) evictionTime(res *extract.Result, b *extract.Batch) float64 {
	spec := a.cfg.Spec
	if spec.EvictionFactor <= 1 && spec.EvictionPerKey <= 0 {
		return 0
	}
	keys := 0
	for _, k := range b.Keys {
		if len(k) > keys {
			keys = len(k)
		}
	}
	t := float64(keys) * spec.EvictionPerKey
	if spec.EvictionFactor > 1 {
		t += res.Time * (spec.EvictionFactor - 1)
	}
	return t
}

// dispatchBatch implements locality-aware dispatching: the iteration's
// G×batch samples are generated centrally and each sample goes to the GPU
// caching the most of its keys, subject to per-GPU quotas (load balance).
func (a *DLRApp) dispatchBatch(b *extract.Batch) {
	g := a.cfg.P.N
	per := a.cfg.DS.KeysPerSample()
	quota := a.cfg.BatchSize
	assigned := make([]int, g)
	raw := make([][]int64, 0, g*a.cfg.BatchSize)
	for i := 0; i < g*a.cfg.BatchSize; i++ {
		raw = append(raw, a.cfg.DS.GenBatch(a.r, 1)[:per])
	}
	perGPU := make([][]int64, g)
	for _, sample := range raw {
		best, bestAff := -1, -1
		for cand := 0; cand < g; cand++ {
			if assigned[cand] >= quota {
				continue
			}
			aff := 0
			for _, k := range sample {
				if int(a.Sys.Placement().SourceOf(cand, k)) == cand {
					aff++
				}
			}
			if aff > bestAff {
				best, bestAff = cand, aff
			}
		}
		if best < 0 {
			best = 0 // quotas exhausted only by rounding; dump on gpu0
		}
		assigned[best]++
		perGPU[best] = append(perGPU[best], sample...)
	}
	for gi := 0; gi < g; gi++ {
		b.Keys[gi] = workload.Unique(perGPU[gi], a.scratch)
	}
}
