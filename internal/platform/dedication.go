package platform

import (
	"math"
	"slices"
)

// FEMDedication returns the paper's §5.3 core dedication for destination GPU
// dst: how many cores to dedicate to each source location. Index by
// SourceID; the local entry is always 0 because local extraction runs
// purely on padding (cores handed over as non-local groups finish). The row
// is the platform's own, derived once by New: read it, do not write it.
func (p *Platform) FEMDedication(dst int) []float64 { return p.ded[dst] }

// dedication computes FEMDedication's row for New.
//
// Strategy, verbatim from the paper:
//   - host first gets a small number of cores — its PCIe tolerance — to
//     prevent extremely ragged time;
//   - on hard-wired platforms the remaining cores are sliced by the ratio
//     of per-pair link bandwidth (unconnected pairs get nothing);
//   - on switch-based platforms the remaining cores are divided equally
//     among the N−1 remote GPUs, which bounds each reader to 1/(N−1) of any
//     source's outbound port and makes concurrent readers collision-free
//     without synchronization.
//
// Host and network take at most half the cores left, which is a fraction of
// one on a GPU with too few SMs (as remote groups take fractions), so no
// source a path reaches gets none.
func (p *Platform) dedication(dst int) []float64 {
	cores := make([]float64, p.NumSources())
	total := float64(p.GPU.SMs)

	hostCores := math.Min(p.toleranceCores(dst, p.Host()), total/2)
	cores[p.Host()] = hostCores
	remaining := total - hostCores

	if p.hasNet {
		// The network tier gets its tolerance, like host: enough cores to
		// saturate the (slow) staged path without starving the NVLink
		// groups that carry the bulk of the traffic.
		netCores := math.Min(p.toleranceCores(dst, p.Network()), remaining/2)
		cores[p.Network()] = netCores
		remaining -= netCores
	}

	if p.N == 1 {
		return cores
	}
	switch p.Kind {
	case SwitchBased:
		each := remaining / float64(p.N-1)
		for j := 0; j < p.N; j++ {
			if j != dst {
				cores[j] = each
			}
		}
	case HardWired:
		// Shares are taken relative to the widest link, so neither the sum
		// nor a product overflows (PairBW is 0 on the diagonal and for
		// unconnected pairs, which get nothing).
		row := p.PairBW[dst]
		widest := slices.Max(row)
		if widest == 0 {
			return cores
		}
		sum := 0.0
		for _, bw := range row {
			sum += bw / widest
		}
		for j, bw := range row {
			cores[j] = remaining * (bw / widest) / sum
		}
	}
	return cores
}

// toleranceCores is the tolerance of the path from src to dst rounded up to
// whole cores, at least one (a tolerance that underflows to 0 still names a
// source to read), and 0 when no path reaches src.
func (p *Platform) toleranceCores(dst int, src SourceID) float64 {
	tol, ok := p.Tolerance(dst, src)
	if !ok {
		return 0
	}
	return math.Max(math.Ceil(tol), 1)
}

// EffectiveBW returns the bandwidth a FEM-dedicated core group actually
// sustains from src to dst: the smaller of the path's link capacity and the
// dedicated cores' aggregate issue rate. This is the 1/T_{i←j} the policy
// solver plans with (§6.2): it bakes in both the topology and the §5.3
// dedication, so the plan and the extractor agree. ok=false for unconnected
// pairs.
func (p *Platform) EffectiveBW(dst int, src SourceID) (bw float64, ok bool) {
	link, ok := p.LinkBW(dst, src)
	if !ok {
		return 0, false
	}
	if src == p.Host() {
		// Host DRAM is shared by every GPU extracting concurrently in
		// data-parallel deployment: a reader's fair share is DRAM/N, which
		// on every stock server is at or below its PCIe bandwidth.
		if share := p.DRAMBW / float64(p.N); share < link {
			link = share
		}
	}
	if p.hasNet && src == p.Network() {
		// The single NIC is likewise shared by all N GPUs extracting
		// concurrently; its per-reader share sits below the DRAM share by
		// construction, making the wire the slowest tier.
		if share := p.Net.LinkBW / float64(p.N); share < link {
			link = share
		}
	}
	if int(src) == dst {
		// Local extraction eventually gets every core.
		rate := float64(p.GPU.SMs) * p.GPU.RCoreLocal
		return math.Min(link, rate), true
	}
	rate := p.ded[dst][src] * p.RCore(dst, src)
	if rate <= 0 {
		return 0, false
	}
	return math.Min(link, rate), true
}
