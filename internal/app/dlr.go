package app

import (
	"fmt"

	"ugache/internal/baselines"
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
	pipeline

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

// dlrProfileBatches is the warm-up that measures DLR hotness (the paper
// warms 1000 iterations; the generator is stationary, so fewer suffice).
const dlrProfileBatches = 96

// NewDLR builds the pipeline.
func NewDLR(cfg DLRConfig) (*DLRApp, error) {
	if cfg.P == nil || cfg.DS == nil {
		return nil, fmt.Errorf("app: a platform and a dataset are required")
	}
	cfg.BatchSize = batchOr(cfg.BatchSize)
	if cfg.Model != "dlrm" && cfg.Model != "dcn" {
		return nil, fmt.Errorf("app: unknown DLR model %q", cfg.Model)
	}
	n := cfg.DS.NumEntries()
	reqs := rng.New(cfg.Seed).Split("dlr-" + cfg.DS.Spec.Name)
	pl, err := build(cfg.P, cfg.Spec, cfg.CacheRatio, cfg.Mem, 0, n, cfg.DS.MT.MaxEntryBytes(),
		func() (workload.Hotness, error) {
			rec := make([][]int64, dlrProfileBatches)
			for i := range rec {
				rec[i] = cfg.DS.GenBatch(reqs, cfg.BatchSize)
			}
			return workload.ProfileBatches(n, rec)
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
		pipeline: pl, cfg: cfg, r: reqs,
		dense:   denseSeconds(cfg.P.GPU, flops, kernels),
		scratch: make(map[int64]struct{}),
	}, nil
}

// RunIters simulates iters inference iterations and reports the mean.
func (a *DLRApp) RunIters(iters int) (*Report, error) {
	return a.run(a, iters, 1, a.cfg.P.N)
}

// next draws each GPU's requests, or dispatches them by locality.
func (a *DLRApp) next() *extract.Batch {
	b := &extract.Batch{Keys: make([][]int64, a.cfg.P.N)}
	if a.cfg.LocalityDispatch {
		a.dispatchBatch(b)
		return b
	}
	for g := range b.Keys {
		b.Keys[g] = workload.Unique(a.cfg.DS.GenBatch(a.r, a.cfg.BatchSize), a.scratch)
	}
	return b
}

// terms is the dense part alone: inference neither samples nor queues.
func (a *DLRApp) terms(*extract.Batch, *extract.Result) Breakdown {
	return Breakdown{Dense: a.dense}
}

// dispatchBatch implements locality-aware dispatching: the iteration's
// G×batch samples are generated centrally and each sample goes to the GPU
// caching the most of its keys, subject to per-GPU quotas (load balance).
func (a *DLRApp) dispatchBatch(b *extract.Batch) {
	pl := a.sys.Placement()
	per := a.cfg.DS.KeysPerSample()
	assigned := make([]int, len(b.Keys))
	perGPU := make([][]int64, len(b.Keys))
	for range len(b.Keys) * a.cfg.BatchSize {
		sample := a.cfg.DS.GenBatch(a.r, 1)[:per]
		// The quotas sum to the samples, so one is always open.
		best, bestAff := -1, -1
		for cand := range perGPU {
			if assigned[cand] >= a.cfg.BatchSize {
				continue
			}
			aff := 0
			for _, k := range sample {
				if int(pl.SourceOf(cand, k)) == cand {
					aff++
				}
			}
			if aff > bestAff {
				best, bestAff = cand, aff
			}
		}
		assigned[best]++
		perGPU[best] = append(perGPU[best], sample...)
	}
	for g, keys := range perGPU {
		b.Keys[g] = workload.Unique(keys, a.scratch)
	}
}
