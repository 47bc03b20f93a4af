package solver

import (
	"math"

	"ugache/internal/platform"
)

// costModel holds the per-(destination, source) constants of the §6.2
// extraction-time model for one platform, inverted from the platform's
// EffectiveBW and RCore (themselves read from the tables platform.New
// derived):
//
//	t_i^j     = B_{i←j} / effBW(i, j)              (link-bound time)
//	packing_i = Σ_j B_{i←j} / (rcore(i,j) · SMs)   (core-seconds, ≙ the
//	            paper's Σ_j t_i^j·R_{i←j}: with R_j = tolerance_j/SMs the
//	            two forms are algebraically identical)
//	t_i       = max(max_j t_i^j, packing_i)
//
// where B_{i←j} is the bytes GPU i pulls from source j per iteration under
// the placement's access arrangement and the hotness statistics.
type costModel struct {
	p *platform.Platform
	// invEff[i][j]: 1/effective bandwidth (seconds per byte), +Inf when
	// unreachable.
	invEff [][]float64
	// packCost[i][j]: core-seconds per byte divided by total cores.
	packCost [][]float64
}

func newCostModel(in *Input) *costModel {
	p := in.P
	m := &costModel{p: p}
	srcs := p.NumSources()
	m.invEff = make([][]float64, p.N)
	m.packCost = make([][]float64, p.N)
	for i := 0; i < p.N; i++ {
		m.invEff[i] = make([]float64, srcs)
		m.packCost[i] = make([]float64, srcs)
		for j := 0; j < srcs; j++ {
			src := platform.SourceID(j)
			bw, ok := p.EffectiveBW(i, src)
			if !ok {
				m.invEff[i][j] = math.Inf(1)
				m.packCost[i][j] = math.Inf(1)
				continue
			}
			m.invEff[i][j] = 1 / bw
			m.packCost[i][j] = 1 / (p.RCore(i, src) * float64(p.GPU.SMs))
		}
	}
	if p.HasNetwork() {
		// Cluster mode. Host DRAM holds only this machine's 1/M shard of the
		// uncached range, so "read from host" is not a choice the solver can
		// make on its own — a network-class byte is served by the local shard
		// with probability 1/M and crosses the wire otherwise. Either way it
		// lands in local DRAM and crosses local PCIe into the GPU, so the
		// host path's per-byte cost applies to the FULL network-class volume;
		// the wire fraction additionally rides the NIC's per-GPU share. The
		// link-bound blend is the max of those two constraints, and packing
		// is the full host packing cost (every byte is issued once by a core
		// at the host rate, whichever leg served it). The host column is then
		// pruned (infinite), collapsing the remote-machine trade-off into one
		// extra source class with zero volume-split plumbing downstream.
		net, host := int(p.Network()), int(p.Host())
		wire := 1 - 1/float64(p.Machines())
		invNICShare := float64(p.N) / p.Net.LinkBW
		for i := 0; i < p.N; i++ {
			m.invEff[i][net] = math.Max(m.invEff[i][host], wire*invNICShare)
			m.packCost[i][net] = m.packCost[i][host]
			m.invEff[i][host] = math.Inf(1)
			m.packCost[i][host] = math.Inf(1)
		}
	}
	return m
}

// volumes accumulates B_{i←j} in bytes for a set of blocks whose hotness
// masses the caller supplies.
func volumes(in *Input, blocks []Block, mass func(b *Block) float64) [][]float64 {
	srcs := in.P.NumSources()
	b := make([][]float64, in.P.N)
	for i := range b {
		b[i] = make([]float64, srcs)
	}
	for bi := range blocks {
		blk := &blocks[bi]
		bytes := mass(blk) * float64(in.EntryBytes)
		for i := 0; i < in.P.N; i++ {
			b[i][blk.Access[i]] += bytes
		}
	}
	return b
}

// times evaluates the model for the given volume matrix.
func (m *costModel) times(vol [][]float64) []float64 {
	out := make([]float64, m.p.N)
	for i := 0; i < m.p.N; i++ {
		packing := 0.0
		linkBound := 0.0
		for j, bytes := range vol[i] {
			if bytes == 0 {
				continue
			}
			packing += bytes * m.packCost[i][j]
			if t := bytes * m.invEff[i][j]; t > linkBound {
				linkBound = t
			}
		}
		out[i] = math.Max(packing, linkBound)
	}
	return out
}

// EstimateTimes evaluates the §6.2 model for a finished placement: the
// per-GPU estimated extraction seconds per iteration. Block masses are
// re-summed from the input's hotness through the placement's rank mapping,
// so the model can be evaluated under NEW hotness with an OLD placement
// (the §7.2 refresh trigger).
func EstimateTimes(in *Input, pl *Placement) []float64 {
	return newCostModel(in).times(volumes(in, pl.Blocks, func(b *Block) float64 {
		mass := 0.0
		for _, e := range pl.ByRank[b.Start:b.End] {
			mass += in.Hotness[e]
		}
		return mass
	}))
}

// estimate is EstimateTimes for blocks still being planned in this solve:
// the same sums in the same order, over the contiguous rank-ordered hotness
// (prefix-sum differences would drift from them by ulps).
func (c *ctx) estimate(blocks []Block) []float64 {
	return c.m.times(volumes(c.in, blocks, func(b *Block) float64 {
		return c.rangeSum(b.Start, b.End)
	}))
}
