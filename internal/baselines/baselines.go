// Package baselines encodes the systems the paper compares against (§8.1)
// as compositions of a cache policy, an extraction mechanism, and modelled
// system overheads. Each spec reproduces the published design:
//
//	GNNLab      — replication cache, dedicated sampler GPUs (reclaiming
//	              graph memory for a larger cache), samples shipped to
//	              trainers through host-memory queues.
//	WholeGraph  — pure partition across GPUs with naive peer extraction;
//	              fails to launch when the embeddings exceed aggregate GPU
//	              memory or the platform has unconnected pairs.
//	PartU       — the paper's extension of WholeGraph: hot entries
//	              partitioned (per Quiver clique on non-fully-connected
//	              platforms), cold entries on the CPU.
//	RepU        — PartU's codebase with a replication cache.
//	HPS         — replication cache with LRU-based online eviction on the
//	              lookup path (modelled as a per-key maintenance cost plus
//	              an extraction multiplier).
//	SOK         — partition cache with message-based (AllToAll) extraction.
//	UGache      — the paper's system: solver policy + factored extraction.
package baselines

import (
	"fmt"

	"ugache/internal/extract"
	"ugache/internal/platform"
	"ugache/internal/solver"
)

// Spec is one system under test.
type Spec struct {
	Name      string
	Policy    solver.Policy
	Mechanism extract.Mechanism

	// EvictionPerKey is CPU-side LRU bookkeeping per looked-up key (HPS).
	EvictionPerKey float64
	// EvictionFactor multiplies extraction time (kernel-side LRU probing
	// and TF plugin overhead, HPS).
	EvictionFactor float64

	// DedicatedSamplers moves graph sampling to dedicated GPUs (GNNLab);
	// trainers shrink in number but samples must cross host queues.
	DedicatedSamplers bool
	// ReclaimGraphMemory removes graph storage from trainer GPUs, enlarging
	// the cache (GNNLab).
	ReclaimGraphMemory bool

	// RequiresFullConnectivity fails the system on platforms with
	// unconnected GPU pairs (WholeGraph, §8.1 failure ②).
	RequiresFullConnectivity bool
	// RequiresFullFit fails the system when total GPU cache capacity cannot
	// hold every embedding (WholeGraph, §8.1 failure ①).
	RequiresFullFit bool
}

// Stock systems.
var (
	GNNLab = Spec{
		Name: "GNNLab", Policy: solver.Replication{}, Mechanism: extract.PeerRandom,
		DedicatedSamplers: true, ReclaimGraphMemory: true,
	}
	WholeGraph = Spec{
		Name: "WholeGraph", Policy: solver.Partition{}, Mechanism: extract.PeerRandom,
		RequiresFullConnectivity: true, RequiresFullFit: true,
	}
	PartU = Spec{
		Name: "PartU", Policy: solver.CliquePartition{}, Mechanism: extract.PeerRandom,
	}
	RepU = Spec{
		Name: "RepU", Policy: solver.Replication{}, Mechanism: extract.PeerRandom,
	}
	HPS = Spec{
		Name: "HPS", Policy: solver.Replication{}, Mechanism: extract.PeerRandom,
		EvictionPerKey: 4e-9, EvictionFactor: 1.7,
	}
	SOK = Spec{
		Name: "SOK", Policy: solver.Partition{}, Mechanism: extract.MessageBased,
	}
	UGache = Spec{
		Name: "UGache", Policy: solver.UGache{}, Mechanism: extract.Factored,
	}
)

// GNNSystems lists the GNN-side comparison in the paper's order.
var GNNSystems = []Spec{GNNLab, PartU, UGache}

// DLRSystems lists the DLR-side comparison in the paper's order.
var DLRSystems = []Spec{HPS, SOK, UGache}

// Launchable checks the spec's platform requirements (§8.1: WholeGraph
// "fails to launch" on Server B or when embeddings exceed GPU memory).
func (s Spec) Launchable(p *platform.Platform, totalEntries int64, capacityPerGPU int64) error {
	if s.RequiresFullConnectivity {
		for i := 0; i < p.N; i++ {
			for j := 0; j < p.N; j++ {
				if !p.Connected(i, j) {
					return fmt.Errorf("baselines: %s cannot launch: gpus %d and %d are unconnected", s.Name, i, j)
				}
			}
		}
	}
	if s.RequiresFullFit && capacityPerGPU*int64(p.N) < totalEntries {
		return fmt.Errorf("baselines: %s cannot launch: %d entries exceed total GPU capacity %d",
			s.Name, totalEntries, capacityPerGPU*int64(p.N))
	}
	return nil
}

// Eviction is one iteration's online cache maintenance (HPS): LRU
// bookkeeping for the keys the busiest GPU looks up, plus the extraction's
// extract seconds stretched by the factor beyond 1. It is 0 for a spec
// without eviction.
func (s Spec) Eviction(keys int, extract float64) float64 {
	t := float64(keys) * s.EvictionPerKey
	if s.EvictionFactor > 1 {
		t += extract * (s.EvictionFactor - 1)
	}
	return t
}

// WithMechanism returns a copy running a different extraction mechanism
// (Fig. 12/15 apply UGache's extractor to baseline policies).
func (s Spec) WithMechanism(m extract.Mechanism) Spec {
	s.Mechanism = m
	s.Name = s.Name + "+" + m.String()
	return s
}

// WithPolicy returns a copy running a different cache policy.
func (s Spec) WithPolicy(p solver.Policy) Spec {
	s.Policy = p
	s.Name = s.Name + "+" + p.Name()
	return s
}
