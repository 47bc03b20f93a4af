package platform

import (
	"fmt"

	"ugache/internal/sim"
)

// peerLinkEfficiency is the fraction of an NVLink/NVSwitch link's capacity
// that unorganized, randomly dispatched extraction achieves (§5.2): mixed
// warps issue uncoalesced, short transfers, so the achieved bandwidth sits
// well below the link's capability even when enough cores are parked on
// it. FEM's dedicated, coalesced core groups drive the full-capacity
// links, while naive peer access drives the degraded twins below; this
// reproduces the paper's Fig. 4/13 mechanism gaps.
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

// ensureDegraded builds the degraded twin links (one per PCIe lane,
// NVLink pair, and NVSwitch port). HBM and host DRAM have no twins: on-die
// memory systems handle random access, and the divergence penalty on the
// per-core rate covers the residual cost. New calls this during
// construction so a published platform is immutable; the lazy guard only
// serves hand-built Platform literals in single-threaded tests.
func (p *Platform) ensureDegraded() {
	if p.pcieDeg != nil {
		return
	}
	p.pcieDeg = make([]sim.LinkID, p.N)
	for g := 0; g < p.N; g++ {
		p.pcieDeg[g] = p.Topo.AddLink(fmt.Sprintf("gpu%d-pcie-unorg", g), p.PCIeBW*peerPCIeEfficiency)
	}
	p.nicDeg = -1
	if p.hasNet {
		p.nicDeg = p.Topo.AddLink("nic-unorg", p.Net.LinkBW*peerNetworkEfficiency)
	}
	switch p.Kind {
	case SwitchBased:
		p.outDeg = make([]sim.LinkID, p.N)
		p.inDeg = make([]sim.LinkID, p.N)
		for g := 0; g < p.N; g++ {
			p.outDeg[g] = p.Topo.AddLink(fmt.Sprintf("gpu%d-out-unorg", g), p.SwitchPortBW*peerLinkEfficiency)
			p.inDeg[g] = p.Topo.AddLink(fmt.Sprintf("gpu%d-in-unorg", g), p.SwitchPortBW*peerLinkEfficiency)
		}
	case HardWired:
		p.pairDeg = make([][]sim.LinkID, p.N)
		for i := range p.pairDeg {
			p.pairDeg[i] = make([]sim.LinkID, p.N)
			for j := range p.pairDeg[i] {
				p.pairDeg[i][j] = -1
				if i != j && p.pair[i][j] >= 0 {
					p.pairDeg[i][j] = p.Topo.AddLink(
						fmt.Sprintf("nvlink-%d<-%d-unorg", i, j), p.PairBW[i][j]*peerLinkEfficiency)
				}
			}
		}
	}
}

// PathUnorganized returns the link path for dst reading src under
// unorganized (randomly dispatched) extraction: interconnect hops route
// over the degraded twins.
func (p *Platform) PathUnorganized(dst int, src SourceID) (path []sim.LinkID, ok bool) {
	p.ensureDegraded()
	if dst < 0 || dst >= p.N {
		return nil, false
	}
	switch {
	case src == p.Host():
		return []sim.LinkID{p.dram, p.pcieDeg[dst]}, true
	case p.hasNet && src == p.Network():
		return []sim.LinkID{p.dram, p.nicDeg, p.pcieDeg[dst]}, true
	case int(src) == dst:
		return []sim.LinkID{p.hbm[dst]}, true
	case int(src) >= 0 && int(src) < p.N:
		j := int(src)
		if p.Kind == SwitchBased {
			return []sim.LinkID{p.hbm[j], p.outDeg[j], p.inDeg[dst]}, true
		}
		if p.pairDeg[dst][j] < 0 {
			return nil, false
		}
		return []sim.LinkID{p.hbm[j], p.pairDeg[dst][j]}, true
	}
	return nil, false
}

// FoldDegraded merges bytes carried on degraded twins back onto their real
// links in a LinkBytes vector, so utilization reporting (Fig. 13) always
// charges the physical link. Twin slots are zeroed. Vectors shorter than
// the topology (produced before the twins existed) are left untouched.
func (p *Platform) FoldDegraded(linkBytes []float64) {
	if p.pcieDeg == nil {
		return
	}
	move := func(twin, real sim.LinkID) {
		if int(twin) < len(linkBytes) && int(real) < len(linkBytes) && twin >= 0 {
			linkBytes[real] += linkBytes[twin]
			linkBytes[twin] = 0
		}
	}
	for g := 0; g < p.N; g++ {
		move(p.pcieDeg[g], p.pcie[g])
	}
	if p.hasNet && p.nicDeg >= 0 {
		move(p.nicDeg, p.nic)
	}
	if p.Kind == SwitchBased && p.outDeg != nil {
		for g := 0; g < p.N; g++ {
			move(p.outDeg[g], p.out[g])
			move(p.inDeg[g], p.in[g])
		}
	}
	if p.Kind == HardWired && p.pairDeg != nil {
		for i := 0; i < p.N; i++ {
			for j := 0; j < p.N; j++ {
				if p.pairDeg[i][j] >= 0 {
					move(p.pairDeg[i][j], p.pair[i][j])
				}
			}
		}
	}
}
