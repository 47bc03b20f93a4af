package platform

import (
	"slices"

	"ugache/internal/sim"
)

// peerLinkEfficiency is the fraction of an NVLink/NVSwitch link's capacity
// that unorganized, randomly dispatched extraction achieves (§5.2): mixed
// warps issue uncoalesced, short transfers, so the achieved bandwidth sits
// well below the link's capability even when enough cores are parked on
// it. FEM's dedicated, coalesced core groups drive the links at full
// capacity, while naive peer access sees them at this fraction (the
// unorganized topology below); this reproduces the paper's Fig. 4/13
// mechanism gaps.
const peerLinkEfficiency = 0.55

// peerPCIeEfficiency is the corresponding factor for zero-copy host reads
// over PCIe. It is much milder: PCIe transfers of whole embedding rows
// stay reasonably coalesced even under random dispatch, and the paper's
// Fig. 4 ordering (peer always beats message-based, including on the
// host-dominated 4×V100 runs) requires the peer host path to stay close to
// the message-based staged host fetch. The paper's 1.9× PCIe-utilization
// gain from FEM (Fig. 13) comes mostly from shortening the makespan, not
// from raw PCIe inefficiency.
const peerPCIeEfficiency = 0.85

// peerNetworkEfficiency is the corresponding factor for the inter-machine
// NIC. Unorganized cross-machine access loses the large coalesced RDMA
// reads that make the wire efficient, but the staging path (whole rows
// through host memory) keeps the penalty milder than NVLink's.
const peerNetworkEfficiency = 0.7

// buildUnorganized derives the topology unorganized extraction runs on:
// Topo's links under the same IDs and names, each interconnect link scaled
// by its class's efficiency. HBM and host DRAM keep their capacity: on-die
// memory systems handle random access, and the divergence penalty on the
// per-core rate covers the residual cost.
func (p *Platform) buildUnorganized() {
	p.unorg.Links = slices.Clone(p.Topo.Links)
	scale := func(ids []sim.LinkID, f float64) {
		for _, l := range ids {
			p.unorg.Links[l].Capacity *= f
		}
	}
	scale(p.PCIeIDs(), peerPCIeEfficiency)
	scale(p.NVLinkIDs(), peerLinkEfficiency)
	if p.hasNet {
		scale([]sim.LinkID{p.nic}, peerNetworkEfficiency)
	}
}

// Unorganized returns the topology of unorganized (randomly dispatched)
// extraction: Topo's links, so Path's routes and LinkBytes indices hold on
// it, at the capacities §5.2's uncoalesced transfers achieve.
func (p *Platform) Unorganized() *sim.Topology { return &p.unorg }
