// Package app builds the two EmbDL applications of the evaluation — GNN
// training and DLR inference — on top of the core cache system. The two
// share one set-up (build: cache sizing, the launch check, the app's
// hotness profile and core.Build) and one per-iteration ledger (ledger:
// extraction, the spec's eviction term, tier hits and link utilization,
// closed into the Report). Each app keeps only what differs: its batch
// source and its own cost terms (DLR: dense; GNN: sampling, host queues,
// dense).
package app

import (
	"errors"
	"math"

	"ugache/internal/baselines"
	"ugache/internal/core"
	"ugache/internal/extract"
	"ugache/internal/platform"
	"ugache/internal/workload"
)

// MemoryModel derives per-GPU cache capacity from (scaled) GPU memory the
// way the evaluation does: datasets are built at 1/100 of the paper's
// sizes, so GPU memory is scaled by the same factor and a fixed fraction is
// reserved for workspace (activations, buffers; the paper instead shrinks
// batch sizes on small GPUs, §8.1).
type MemoryModel struct {
	// MemScale scales the physical GPU memory (default 0.01, matching the
	// 1/100-scale datasets).
	MemScale float64
}

// workspaceFrac is the share of GPU memory reserved for activations and
// buffers; the cache sizes of every figure are stated against it.
const workspaceFrac = 0.25

// CapacityEntries returns the cache capacity of one GPU in embedding
// entries, after reserving workspace and any co-resident bytes (graph
// topology for GNN systems that store it on the GPU).
func (m MemoryModel) CapacityEntries(p *platform.Platform, entryBytes int, residentBytes int64) int64 {
	scale := m.MemScale
	if scale <= 0 {
		scale = 0.01
	}
	budget := int64(float64(p.GPU.MemBytes)*scale*(1-workspaceFrac)) - residentBytes
	return max(budget, 0) / int64(entryBytes)
}

// Breakdown is the per-iteration time split, in seconds.
type Breakdown struct {
	Sample   float64 // graph sampling (inline portion)
	Queue    float64 // host-queue transfer of samples (GNNLab)
	Extract  float64 // embedding extraction
	Eviction float64 // online cache maintenance (HPS)
	Dense    float64 // MLP/GNN compute
}

// Iter returns the total iteration time.
func (b Breakdown) Iter() float64 {
	return b.Sample + b.Queue + b.Extract + b.Eviction + b.Dense
}

// Report summarizes a run.
type Report struct {
	Iterations int
	// PerIter is the mean per-iteration breakdown.
	PerIter Breakdown
	// EpochSeconds extrapolates one full epoch (GNN) from the measured
	// iterations; for DLR it equals PerIter.Iter().
	EpochSeconds float64
	// CapacityEntries is the per-GPU cache size used.
	CapacityEntries int64
	// UniqueKeysPerIter is the mean unique keys extracted per GPU.
	UniqueKeysPerIter float64
	// HitLocal/HitRemote/HitHost are measured access fractions (bytes).
	HitLocal, HitRemote, HitHost float64
	// LinkUtilPCIe / LinkUtilNVLink are mean utilizations during
	// extraction (Fig. 13).
	LinkUtilPCIe, LinkUtilNVLink float64
}

// sampleRate is the modelled GPU graph-sampling throughput in adjacency
// entries per second (GPU-based neighbour sampling à la WholeGraph).
const sampleRate = 600e6

// errIters refuses a run of no iterations.
var errIters = errors.New("app: iterations must be positive")

func batchOr(b int) int {
	if b <= 0 {
		return 8192
	}
	return b
}

// pipeline is what both apps are built into: the system and the spec it
// runs.
type pipeline struct {
	sys  *core.System
	spec baselines.Spec
}

// build is the set-up both apps share. It sizes the per-GPU cache — ratio
// > 0 pins it to that share of the n entries, otherwise mem derives it from
// GPU memory less the resident bytes that share it — clamped to n, checks
// that spec launches at that size, profiles the hotness and builds the
// system.
func build(p *platform.Platform, spec baselines.Spec, ratio float64, mem MemoryModel, resident int64,
	n int64, entryBytes int, profile func() (workload.Hotness, error)) (pipeline, error) {
	capacity := mem.CapacityEntries(p, entryBytes, resident)
	if ratio > 0 {
		// Rounded up, so a tiny ratio still caches one entry.
		capacity = max(int64(math.Ceil(ratio*float64(n))), 1)
	}
	capacity = min(capacity, n)
	if err := spec.Launchable(p, n, capacity); err != nil {
		return pipeline{}, err
	}
	hot, err := profile()
	if err != nil {
		return pipeline{}, err
	}
	sys, err := core.Build(core.Config{
		Platform:           p,
		Hotness:            hot,
		EntryBytes:         entryBytes,
		CacheEntriesPerGPU: max(capacity, 1),
		Policy:             spec.Policy,
		Mechanism:          spec.Mechanism,
	})
	return pipeline{sys: sys, spec: spec}, err
}

// source is what differs between the apps: where an iteration's keys come
// from and what the iteration costs beyond its extraction.
type source interface {
	// next draws one iteration's batch.
	next() *extract.Batch
	// terms prices the iteration's own terms (Sample, Queue, Dense) once
	// its extraction is known.
	terms(b *extract.Batch, res *extract.Result) Breakdown
}

// run measures iters iterations of src: an epoch is epochIters of them, and
// the unique keys are averaged over the gpus that draw them.
func (pl pipeline) run(src source, iters, epochIters, gpus int) (*Report, error) {
	if iters <= 0 {
		return nil, errIters
	}
	var l ledger
	for it := 0; it < iters; it++ {
		b := src.next()
		res, err := pl.sys.ExtractBatch(b, nil)
		if err != nil {
			return nil, err
		}
		l.add(pl, b, res, src.terms(b, res))
	}
	return l.report(pl, iters, epochIters, gpus), nil
}

// ledger sums a run's iterations: the breakdown, the unique keys, the keys
// by tier and the PCIe/NVLink utilizations.
type ledger struct {
	sum                                  Breakdown
	keys, hitL, hitR, hitH, utilP, utilN float64
}

// add records one iteration: the extraction res of batch b, the spec's
// eviction term, and the app's own terms.
func (l *ledger) add(pl pipeline, b *extract.Batch, res *extract.Result, terms Breakdown) {
	most := 0
	for _, k := range b.Keys {
		l.keys += float64(len(k))
		most = max(most, len(k))
	}
	p := pl.sys.P
	l.sum.Sample += terms.Sample
	l.sum.Queue += terms.Queue
	l.sum.Extract += res.Time
	l.sum.Eviction += pl.spec.Eviction(most, res.Time)
	l.sum.Dense += terms.Dense
	l.utilP += res.Utilization(p, p.PCIeIDs())
	l.utilN += res.Utilization(p, p.NVLinkIDs())
	local, remote, host := hits(res, pl.sys.Cache.EntryBytes)
	l.hitL += local
	l.hitR += remote
	l.hitH += host
}

// report closes the ledger over iters iterations.
func (l *ledger) report(pl pipeline, iters, epochIters, gpus int) *Report {
	inv := 1 / float64(iters)
	per := Breakdown{
		Sample: l.sum.Sample * inv, Queue: l.sum.Queue * inv, Extract: l.sum.Extract * inv,
		Eviction: l.sum.Eviction * inv, Dense: l.sum.Dense * inv,
	}
	tot := l.hitL + l.hitR + l.hitH
	if tot == 0 {
		tot = 1
	}
	return &Report{
		Iterations: iters, PerIter: per,
		EpochSeconds:      per.Iter() * float64(epochIters),
		CapacityEntries:   pl.sys.Placement().CapacityUsed()[0],
		UniqueKeysPerIter: l.keys / float64(iters) / float64(gpus),
		HitLocal:          l.hitL / tot, HitRemote: l.hitR / tot, HitHost: l.hitH / tot,
		LinkUtilPCIe: l.utilP * inv, LinkUtilNVLink: l.utilN * inv,
	}
}

// hits counts an extraction's keys by tier from the extractor's split, each
// tier's bytes over the entry size (a whole number of keys, so the counts
// are exact). Network-tier keys, which only clustered platforms have, are
// staged through host memory and count as host.
func hits(res *extract.Result, entryBytes int) (local, remote, host float64) {
	eb := float64(entryBytes)
	for _, tb := range res.TierBytes {
		local += tb[platform.TierLocal] / eb
		remote += tb[platform.TierRemote] / eb
		host += (tb[platform.TierHost] + tb[platform.TierNetwork]) / eb
	}
	return local, remote, host
}
