// Package app builds the two EmbDL applications of the evaluation — GNN
// training and DLR inference — on top of the core cache system, with the
// per-iteration accounting (sampling, host queues, extraction, eviction
// overhead, dense compute) that the end-to-end figures report.
package app

import (
	"fmt"
	"math"

	"ugache/internal/extract"
	"ugache/internal/platform"
)

// ratioEntries converts a cache ratio into a per-GPU entry count, rounding
// up so tiny ratios yield a usable (>= 1 entry) cache instead of silently
// truncating to zero.
func ratioEntries(ratio float64, n int64) int64 {
	c := int64(math.Ceil(ratio * float64(n)))
	if c < 1 {
		c = 1
	}
	return c
}

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

func (m MemoryModel) normalize() MemoryModel {
	if m.MemScale <= 0 {
		m.MemScale = 0.01
	}
	return m
}

// CapacityEntries returns the cache capacity of one GPU in embedding
// entries, after reserving workspace and any co-resident bytes (graph
// topology for GNN systems that store it on the GPU).
func (m MemoryModel) CapacityEntries(p *platform.Platform, entryBytes int, residentBytes int64) int64 {
	m = m.normalize()
	budget := int64(float64(p.GPU.MemBytes)*m.MemScale*(1-workspaceFrac)) - residentBytes
	if budget < 0 {
		budget = 0
	}
	return budget / int64(entryBytes)
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
	System     string
	App        string // "gnn" or "dlr"
	Dataset    string
	Platform   string
	Iterations int
	// PerIter is the mean per-iteration breakdown.
	PerIter Breakdown
	// EpochSeconds extrapolates one full epoch (GNN) from the measured
	// iterations; for DLR it equals PerIter.Iter().
	EpochSeconds float64
	// EpochIters is the iteration count of a full epoch (GNN).
	EpochIters int
	// CapacityEntries is the per-GPU cache size used.
	CapacityEntries int64
	// CacheRatio is capacity over total entries.
	CacheRatio float64
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

// validateCommon checks shared config fields.
func validateCommon(p *platform.Platform, batch int) error {
	if p == nil {
		return fmt.Errorf("app: platform is required")
	}
	if batch <= 0 {
		return fmt.Errorf("app: batch size must be positive")
	}
	return nil
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
