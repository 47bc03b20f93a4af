// Package extract implements the embedding extraction mechanisms of §3.2
// and §5 on the platform simulator:
//
//   - Factored: UGache's factored extraction mechanism (FEM): keys are
//     grouped by source location, cores are statically dedicated per source
//     by the §5.3 strategy, and local extraction runs at low priority as
//     padding for ragged non-local groups;
//   - PeerRandom: the naive peer-based zero-copy extraction of prior work
//     (WholeGraph): all cores drain one randomly dispatched mixed queue —
//     modelled as a proportional-drain fluid run with a divergence penalty
//     on the per-core issue rate (mixed-source warps lose memory-level
//     parallelism; §5.2's congestion and core stall);
//   - MessageBased: the AllToAll scheme of NCCL-based systems (SOK): gather
//     into send buffers, exchange buffers pairwise, then reorder — three
//     passes with extra data movement (§3.2).
//
// Each mechanism consumes a solved cache placement and a batch of keys per
// destination GPU and returns the simulated extraction time plus per-link
// utilization. An optional functional mode actually moves embedding bytes
// through memsim so tests can verify extraction correctness end to end.
package extract

import (
	"fmt"
	"math"

	"ugache/internal/platform"
	"ugache/internal/sim"
	"ugache/internal/solver"
)

// Mechanism identifies an extraction scheme.
type Mechanism int

const (
	Factored Mechanism = iota
	PeerRandom
	MessageBased
	// FactoredStatic is an ablation of §5.3's local-extraction padding: the
	// same per-source organization, but cores are split statically in
	// proportion to each source's bytes and never handed over, so ragged
	// non-local groups leave cores idle.
	FactoredStatic
)

func (m Mechanism) String() string {
	switch m {
	case Factored:
		return "factored"
	case PeerRandom:
		return "peer-random"
	case MessageBased:
		return "message-based"
	case FactoredStatic:
		return "factored-static"
	}
	return fmt.Sprintf("mechanism(%d)", int(m))
}

// divergenceFactor is the per-core issue-rate penalty of randomly
// dispatched, mixed-source extraction (PeerRandom): a warp that interleaves
// local, remote and host keys cannot keep its full complement of
// outstanding loads on any one link. Calibrated so FEM's improvement over
// naive peer access matches the paper's Fig. 4 / Fig. 13 (1.5–2× extraction
// speedup, ~2–3.5× link-utilization gain).
const divergenceFactor = 0.55

// ncclEfficiency discounts the AllToAll exchange bandwidth relative to raw
// link capacity (protocol and chunking overheads).
const ncclEfficiency = 0.8

// Batch is one iteration's unique keys for every destination GPU
// (data-parallel deployment: each GPU has its own input batch).
type Batch struct {
	// Keys[g] are the unique embedding keys GPU g must extract.
	Keys [][]int64
	// Staged[g], when non-nil, are the keys GPU g serves from its transient
	// staging arena this iteration (lookahead prefetch hits). They were moved
	// over the interconnect by an earlier prefetch extraction, so the demand
	// batch charges them as local HBM reads: the staged-source plan adds
	// their bytes to the g<-local demand instead of their placement source.
	// Staged must be disjoint from Keys[g].
	Staged [][]int64
}

// Result reports one simulated extraction.
type Result struct {
	// Time is the extraction makespan in seconds.
	Time float64
	// PerGPU[g] is GPU g's completion time.
	PerGPU []float64
	// LinkBytes mirrors sim.Result.LinkBytes for utilization reporting.
	LinkBytes []float64
	// SrcBytes[g][j] is the bytes GPU g pulled from source j.
	SrcBytes [][]float64
	// TierBytes[g][t] is the bytes GPU g pulled from tier t (a
	// platform.Tier), and TierSeconds[g][t] their §6.2 serial estimate, the
	// sum of bytes × time-per-byte over the tier's sources. Tiers overlap in
	// the simulated schedule, so a row's seconds may sum to more than Time.
	TierBytes   [][]float64
	TierSeconds [][]float64
}

// Utilization returns the average utilization of the given links over the
// extraction (Fig. 13).
func (r *Result) Utilization(p *platform.Platform, links []sim.LinkID) float64 {
	if r.Time <= 0 || len(links) == 0 {
		return 0
	}
	num, den := 0.0, 0.0
	for _, l := range links {
		num += r.LinkBytes[l]
		den += p.Topo.Links[l].Capacity * r.Time
	}
	if den == 0 {
		return 0
	}
	return num / den
}

// Extractor runs extractions against a placement.
type Extractor struct {
	P  *platform.Platform
	Pl *solver.Placement
	// Owned, on clustered platforms, reports whether this machine's host
	// shard holds the key. Network-class keys the predicate accepts are
	// regrouped onto the host path (the local 1/M shard serves them without
	// touching the wire) — the runtime realization of the solver's blended
	// network column. Nil means no local shard (every network-class key
	// crosses the NIC).
	Owned func(key int64) bool
	// plan caches the batch-invariant planning constants (paths, core
	// dedications, tiers); see planCache.
	plan *planCache
}

// New creates an extractor.
func New(p *platform.Platform, pl *solver.Placement) (*Extractor, error) {
	if p == nil || pl == nil {
		return nil, fmt.Errorf("extract: nil platform or placement")
	}
	if pl.NumGPUs != p.N {
		return nil, fmt.Errorf("extract: placement for %d GPUs on %d-GPU platform", pl.NumGPUs, p.N)
	}
	return &Extractor{P: p, Pl: pl, plan: newPlanCache(p)}, nil
}

func (e *Extractor) entryBytes() float64 { return float64(e.Pl.EntryBytes) }

// Run simulates one extraction with the given mechanism. Every mechanism's
// SrcBytes, TierBytes and TierSeconds alias sc, and the Factored and
// FactoredStatic mechanisms' PerGPU and LinkBytes too, so the returned
// Result is valid only until sc's next use. PeerRandom and MessageBased
// still allocate their stage plans (they are comparison baselines, not the
// serving hot path). A nil sc means a fresh one of the call's own, so the
// Result is the caller's to keep.
func (e *Extractor) Run(m Mechanism, b *Batch, sc *Scratch) (*Result, error) {
	if sc == nil {
		sc = NewScratch()
	}
	res, err := e.srcBytes(b, sc)
	if err != nil {
		return nil, err
	}
	switch m {
	case Factored:
		err = e.runFactored(res, sc)
	case PeerRandom:
		err = e.runPeerRandom(res)
	case MessageBased:
		err = e.runMessageBased(res)
	case FactoredStatic:
		err = e.runFactoredStatic(res, sc)
	default:
		err = fmt.Errorf("extract: unknown mechanism %d", m)
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}

// RunWith runs as Run does. It goes once benchmark/ stops calling it.
func (e *Extractor) RunWith(m Mechanism, b *Batch, sc *Scratch) (*Result, error) {
	return e.Run(m, b, sc)
}

// runFactored implements §5.3: per-source dedicated core groups with local
// padding. The demand plan, index table and simulator state are the
// scratch's, reused across runs.
func (e *Extractor) runFactored(out *Result, sc *Scratch) error {
	vol := out.SrcBytes
	ns := e.P.NumSources()
	demands := sc.demands[:0]
	idx := sc.idxMatrix(e.P.N, ns) // demand index per (gpu, source)
	pc := e.plan
	// Local demands first so non-local groups can pad into them.
	for g := 0; g < e.P.N; g++ {
		idx[g][g] = len(demands)
		demands = append(demands, sim.Demand{
			Bytes: vol[g][g], Cores: 0, RCore: e.P.GPU.RCoreLocal,
			Path: pc.paths[g][g], PadTo: -1,
		})
	}
	for g := 0; g < e.P.N; g++ {
		ded := pc.ded[g]
		for j := 0; j < ns; j++ {
			if j == g {
				continue
			}
			if vol[g][j] > 0 {
				if !pc.pathOK[g][j] {
					return fmt.Errorf("extract: gpu %d routed to unreachable source %d", g, j)
				}
				if ded[j] <= 0 {
					return fmt.Errorf("extract: gpu %d has bytes for source %d but no dedicated cores", g, j)
				}
				idx[g][j] = len(demands)
				demands = append(demands, sim.Demand{
					Bytes: vol[g][j], Cores: ded[j], RCore: pc.rcore[g][j],
					Path: pc.paths[g][j], PadTo: idx[g][g],
				})
			} else if ded[j] > 0 {
				// An empty group's cores join local extraction immediately.
				demands[idx[g][g]].Cores += ded[j]
			}
		}
		// Host cores with no host bytes were already folded in above (the
		// host source is part of the loop). Give the local demand at least
		// a token core if nothing pads into it and it has bytes.
		if vol[g][g] > 0 {
			hasPadder := false
			for j := 0; j < ns; j++ {
				if j != g && idx[g][j] >= 0 {
					hasPadder = true
				}
			}
			if !hasPadder && demands[idx[g][g]].Cores == 0 {
				demands[idx[g][g]].Cores = float64(e.P.GPU.SMs)
			}
		}
	}
	return e.runPlan(demands, idx, out, sc)
}

// runPlan is the shared tail of the two factored mechanisms: simulate the
// demand plan and fold the per-demand finish times into per-GPU completion
// times through the plan's (gpu, source) -> demand index table.
func (e *Extractor) runPlan(demands []sim.Demand, idx [][]int, out *Result, sc *Scratch) error {
	sc.demands = demands // keep grown capacity for the next run
	res, err := e.P.Topo.Run(demands, &sc.sim)
	if err != nil {
		return err
	}
	out.Time, out.PerGPU, out.LinkBytes = res.Makespan, sc.perGPUSlice(e.P.N), res.LinkBytes
	for g, row := range idx {
		for _, di := range row {
			if di >= 0 && res.Finish[di] > out.PerGPU[g] {
				out.PerGPU[g] = res.Finish[di]
			}
		}
	}
	return nil
}

// runPeerRandom implements the unorganized peer-based extraction of §5.2:
// one mixed queue per GPU, proportional drain, divergence-degraded per-core
// rates. The routes are Factored's; they run on the platform's unorganized
// topology (§5.2: uncoalesced transfers achieve only a fraction of link
// capacity), whose link IDs are the physical ones.
func (e *Extractor) runPeerRandom(out *Result) error {
	vol := out.SrcBytes
	pc := e.plan
	var demands []sim.PoolDemand
	pools := make([]sim.Pool, e.P.N)
	for g := 0; g < e.P.N; g++ {
		pools[g].Cores = float64(e.P.GPU.SMs)
		for j := 0; j < e.P.NumSources(); j++ {
			if vol[g][j] == 0 {
				continue
			}
			if !pc.pathOK[g][j] {
				return fmt.Errorf("extract: gpu %d routed to unreachable source %d", g, j)
			}
			demands = append(demands, sim.PoolDemand{
				Pool: g, Bytes: vol[g][j],
				RCore: divergenceFactor * pc.rcore[g][j],
				Path:  pc.paths[g][j],
			})
		}
	}
	res, err := e.P.Unorganized().RunProportional(demands, pools)
	if err != nil {
		return err
	}
	out.Time, out.PerGPU, out.LinkBytes = res.Makespan, res.PoolTime, res.LinkBytes
	return nil
}

// runMessageBased implements the AllToAll scheme of §3.2 in three stages.
// Stage 1: every GPU gathers the entries it owns that anyone requested into
// contiguous send buffers (local reads at full parallelism). Host-resident
// keys are fetched by the requester itself over PCIe (as SOK does for its
// CPU-side fallback). Stage 2: buffers are exchanged pairwise at
// NCCL-discounted link bandwidth. Stage 3: received buffers are reordered
// into the output tensor (one more local pass over all bytes).
func (e *Extractor) runMessageBased(out *Result) error {
	vol := out.SrcBytes
	pc := e.plan
	host := int(e.P.Host())
	// gatherBytes[j]: bytes GPU j reads locally on behalf of all readers.
	gatherBytes := make([]float64, e.P.N)
	// exchBytes[i][j]: bytes moving j -> i in the exchange.
	exchBytes := make([][]float64, e.P.N)
	hostBytes := make([]float64, e.P.N)
	recvBytes := make([]float64, e.P.N)
	for i := 0; i < e.P.N; i++ {
		exchBytes[i] = make([]float64, e.P.N)
		for j := 0; j < e.P.NumSources(); j++ {
			v := vol[i][j]
			if v == 0 {
				continue
			}
			switch pc.tier[i][j] {
			case platform.TierHost, platform.TierNetwork:
				// Cross-machine fetches stage through host memory; the
				// message-based baseline models them as host fetches (it has
				// no cross-machine exchange phase of its own).
				hostBytes[i] += v
			case platform.TierLocal:
				gatherBytes[i] += v // local gather straight to output
			default:
				gatherBytes[j] += v
				exchBytes[i][j] = v
				recvBytes[i] += v
			}
		}
	}

	stage := func(demands []sim.Demand) (float64, []float64, error) {
		if len(demands) == 0 {
			return 0, make([]float64, len(e.P.Topo.Links)), nil
		}
		res, err := e.P.Topo.Run(demands, nil)
		if err != nil {
			return 0, nil, err
		}
		return res.Makespan, res.LinkBytes, nil
	}
	cores := float64(e.P.GPU.SMs)

	// Stage 1: gather + host fetch, concurrently.
	var d1 []sim.Demand
	for g := 0; g < e.P.N; g++ {
		if gatherBytes[g] > 0 {
			d1 = append(d1, sim.Demand{
				Bytes: gatherBytes[g], Cores: cores, RCore: e.P.GPU.RCoreLocal,
				Path: pc.paths[g][g], PadTo: -1})
		}
		if hostBytes[g] > 0 {
			tol, _ := e.P.Tolerance(g, e.P.Host())
			d1 = append(d1, sim.Demand{
				Bytes: hostBytes[g], Cores: math.Ceil(tol), RCore: e.P.GPU.RCoreHost,
				Path: pc.paths[g][host], PadTo: -1})
		}
	}
	t1, lb1, err := stage(d1)
	if err != nil {
		return err
	}

	// Stage 2: AllToAll exchange at NCCL-discounted bandwidth.
	var d2 []sim.Demand
	for i := 0; i < e.P.N; i++ {
		for j := 0; j < e.P.N; j++ {
			if exchBytes[i][j] == 0 {
				continue
			}
			path := pc.paths[i][j]
			if !pc.pathOK[i][j] {
				// NCCL routes unconnected pairs through host; model as a
				// host bounce (two PCIe legs simplified to one host read).
				path = pc.paths[i][host]
			}
			d2 = append(d2, sim.Demand{
				Bytes: exchBytes[i][j] / ncclEfficiency, Cores: cores / float64(e.P.N),
				RCore: e.P.GPU.RCoreRemote, Path: path, PadTo: -1})
		}
	}
	t2, lb2, err := stage(d2)
	if err != nil {
		return err
	}

	// Stage 3: reorder received buffers (local read+write pass).
	var d3 []sim.Demand
	for g := 0; g < e.P.N; g++ {
		if recvBytes[g] > 0 {
			d3 = append(d3, sim.Demand{
				Bytes: 2 * recvBytes[g], Cores: cores, RCore: e.P.GPU.RCoreLocal,
				Path: pc.paths[g][g], PadTo: -1})
		}
	}
	t3, lb3, err := stage(d3)
	if err != nil {
		return err
	}

	linkBytes := make([]float64, len(e.P.Topo.Links))
	for l := range linkBytes {
		linkBytes[l] = lb1[l] + lb2[l] + lb3[l]
	}
	total := t1 + t2 + t3
	per := make([]float64, e.P.N)
	for g := range per {
		per[g] = total // barrier semantics of collective exchange
	}
	out.Time, out.PerGPU, out.LinkBytes = total, per, linkBytes
	return nil
}

// runFactoredStatic is the padding ablation: per-source groups sized
// proportionally to their byte volume (at least one core), no handoff.
func (e *Extractor) runFactoredStatic(out *Result, sc *Scratch) error {
	vol := out.SrcBytes
	ns := e.P.NumSources()
	demands := sc.demands[:0]
	owner := sc.idxMatrix(e.P.N, ns)
	pc := e.plan
	for g := 0; g < e.P.N; g++ {
		total := 0.0
		for _, v := range vol[g] {
			total += v
		}
		for j := 0; j < ns; j++ {
			if vol[g][j] == 0 {
				continue
			}
			if !pc.pathOK[g][j] {
				return fmt.Errorf("extract: gpu %d routed to unreachable source %d", g, j)
			}
			cores := float64(e.P.GPU.SMs) * vol[g][j] / total
			if cores < 1 {
				cores = 1
			}
			owner[g][j] = len(demands)
			demands = append(demands, sim.Demand{
				Bytes: vol[g][j], Cores: cores, RCore: pc.rcore[g][j],
				Path: pc.paths[g][j], PadTo: -1,
			})
		}
	}
	return e.runPlan(demands, owner, out, sc)
}
