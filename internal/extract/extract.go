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

// Extractor runs extractions against a placement. It holds no plan of its
// own: routes, core dedications, tiers and time per byte are the
// platform's, derived once by platform.New, and every mechanism reads them
// there.
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
}

// New creates an extractor.
func New(p *platform.Platform, pl *solver.Placement) (*Extractor, error) {
	if p == nil || pl == nil {
		return nil, fmt.Errorf("extract: nil platform or placement")
	}
	if pl.NumGPUs != p.N {
		return nil, fmt.Errorf("extract: placement for %d GPUs on %d-GPU platform", pl.NumGPUs, p.N)
	}
	return &Extractor{P: p, Pl: pl}, nil
}

func (e *Extractor) entryBytes() float64 { return float64(e.Pl.EntryBytes) }

// route returns the platform's path from GPU g to source j. The mechanisms
// read it only for routes splitTiers has let through, so it is never nil
// there.
func (e *Extractor) route(g, j int) []sim.LinkID {
	path, _ := e.P.Path(g, platform.SourceID(j))
	return path
}

// Run simulates one extraction with the given mechanism. Every mechanism
// plans on sc and runs on its simulator, so the returned Result's slices all
// alias sc and are valid only until its next use, and a warm sc allocates
// nothing but Results, this one and the simulator's. A nil sc means a fresh
// one of the call's own, so the Result is the caller's to keep. A batch
// whose placement routes a key to a source its GPU cannot reach is refused,
// the same way by every mechanism.
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
		err = e.runPeerRandom(res, sc)
	case MessageBased:
		err = e.runMessageBased(res, sc)
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
	// Local demands first so non-local groups can pad into them.
	for g := 0; g < e.P.N; g++ {
		idx[g][g] = len(demands)
		demands = append(demands, sim.Demand{
			Bytes: vol[g][g], Cores: 0, RCore: e.P.GPU.RCoreLocal,
			Path: e.route(g, g), PadTo: -1,
		})
	}
	for g := 0; g < e.P.N; g++ {
		ded := e.P.FEMDedication(g)
		for j := 0; j < ns; j++ {
			if j == g {
				continue
			}
			if vol[g][j] > 0 {
				if ded[j] <= 0 {
					return fmt.Errorf("extract: gpu %d has bytes for source %d but no dedicated cores", g, j)
				}
				idx[g][j] = len(demands)
				demands = append(demands, sim.Demand{
					Bytes: vol[g][j], Cores: ded[j], RCore: e.P.RCore(g, platform.SourceID(j)),
					Path: e.route(g, j), PadTo: idx[g][g],
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
// demand plan on the scratch and fold it into out.
func (e *Extractor) runPlan(demands []sim.Demand, idx [][]int, out *Result, sc *Scratch) error {
	sc.demands = demands // keep grown capacity for the next run
	res, err := e.P.Topo.Run(demands, &sc.sim)
	if err != nil {
		return err
	}
	e.fold(res, idx, out, sc)
	return nil
}

// fold sets out's time and link bytes from a simulated plan and folds the
// per-demand finish times into per-GPU completion times through the plan's
// (gpu, source) -> demand index table.
func (e *Extractor) fold(res *sim.Result, idx [][]int, out *Result, sc *Scratch) {
	out.Time, out.PerGPU, out.LinkBytes = res.Makespan, zeroed(&sc.perGPU, e.P.N), res.LinkBytes
	for g, row := range idx {
		for _, di := range row {
			if di >= 0 && res.Finish[di] > out.PerGPU[g] {
				out.PerGPU[g] = res.Finish[di]
			}
		}
	}
}

// runPeerRandom implements the unorganized peer-based extraction of §5.2:
// one mixed queue per GPU, proportional drain, divergence-degraded per-core
// rates. The routes are Factored's; they run on the platform's unorganized
// topology (§5.2: uncoalesced transfers achieve only a fraction of link
// capacity), whose link IDs are the physical ones.
func (e *Extractor) runPeerRandom(out *Result, sc *Scratch) error {
	vol := out.SrcBytes
	demands := sc.demands[:0]
	idx := sc.idxMatrix(e.P.N, e.P.NumSources())
	for g, row := range vol {
		for j, bytes := range row {
			if bytes == 0 {
				continue
			}
			idx[g][j] = len(demands)
			demands = append(demands, sim.Demand{
				Pool: g, Bytes: bytes,
				RCore: divergenceFactor * e.P.RCore(g, platform.SourceID(j)),
				Path:  e.route(g, j),
			})
		}
	}
	sc.demands = demands
	res, err := e.P.Unorganized().RunProportional(demands, float64(e.P.GPU.SMs), &sc.sim)
	if err != nil {
		return err
	}
	e.fold(res, idx, out, sc)
	return nil
}

// runMessageBased implements the AllToAll scheme of §3.2 in three stages,
// run in turn on the scratch's simulator with their link bytes summed.
// Stage 1: every GPU gathers the entries it owns that anyone requested into
// contiguous send buffers (local reads at full parallelism). Host-resident
// keys are fetched by the requester itself over PCIe (as SOK does for its
// CPU-side fallback); cross-machine fetches stage through host memory, so
// the baseline, which has no cross-machine exchange of its own, counts them
// as host fetches. Stage 2: buffers are exchanged pairwise at
// NCCL-discounted link bandwidth. Stage 3: received buffers (the remote
// tier) are reordered into the output tensor (one more local pass over all
// bytes).
func (e *Extractor) runMessageBased(out *Result, sc *Scratch) error {
	vol := out.SrcBytes
	cores := float64(e.P.GPU.SMs)
	// gather[j]: bytes GPU j reads locally on behalf of all readers.
	gather := zeroed(&sc.gather, e.P.N)
	for i, row := range vol {
		for j, v := range row {
			switch e.P.Tier(i, platform.SourceID(j)) {
			case platform.TierLocal:
				gather[i] += v // local gather straight to output
			case platform.TierRemote:
				gather[j] += v
			}
		}
	}
	out.LinkBytes = zeroed(&sc.links, len(e.P.Topo.Links))
	stage := func(demands []sim.Demand) error {
		sc.demands = demands
		res, err := e.P.Topo.Run(demands, &sc.sim)
		if err != nil {
			return err
		}
		out.Time += res.Makespan
		for l, b := range res.LinkBytes {
			out.LinkBytes[l] += b
		}
		return nil
	}

	// Stage 1: gather + host fetch, concurrently.
	demands := sc.demands[:0]
	for g, tiers := range out.TierBytes {
		if gather[g] > 0 {
			demands = append(demands, sim.Demand{
				Bytes: gather[g], Cores: cores, RCore: e.P.GPU.RCoreLocal,
				Path: e.route(g, g), PadTo: -1})
		}
		if host := tiers[platform.TierHost] + tiers[platform.TierNetwork]; host > 0 {
			// SOK's own host fetch saturates PCIe on ⌈host tolerance⌉
			// cores; FEM's dedication plays no part in this baseline.
			tol, _ := e.P.Tolerance(g, e.P.Host())
			demands = append(demands, sim.Demand{
				Bytes: host, Cores: math.Ceil(tol), RCore: e.P.GPU.RCoreHost,
				Path: e.route(g, int(e.P.Host())), PadTo: -1})
		}
	}
	if err := stage(demands); err != nil {
		return err
	}

	// Stage 2: AllToAll exchange at NCCL-discounted bandwidth.
	demands = demands[:0]
	for i, row := range vol {
		for j, v := range row {
			if v != 0 && e.P.Tier(i, platform.SourceID(j)) == platform.TierRemote {
				demands = append(demands, sim.Demand{
					Bytes: v / ncclEfficiency, Cores: cores / float64(e.P.N),
					RCore: e.P.GPU.RCoreRemote, Path: e.route(i, j), PadTo: -1})
			}
		}
	}
	if err := stage(demands); err != nil {
		return err
	}

	// Stage 3: reorder received buffers (local read+write pass).
	demands = demands[:0]
	for g, tiers := range out.TierBytes {
		if recv := tiers[platform.TierRemote]; recv > 0 {
			demands = append(demands, sim.Demand{
				Bytes: 2 * recv, Cores: cores, RCore: e.P.GPU.RCoreLocal,
				Path: e.route(g, g), PadTo: -1})
		}
	}
	if err := stage(demands); err != nil {
		return err
	}

	out.PerGPU = zeroed(&sc.perGPU, e.P.N)
	for g := range out.PerGPU {
		out.PerGPU[g] = out.Time // barrier semantics of collective exchange
	}
	return nil
}

// runFactoredStatic is the padding ablation: per-source groups sized
// proportionally to their byte volume (at least one core), no handoff.
func (e *Extractor) runFactoredStatic(out *Result, sc *Scratch) error {
	vol := out.SrcBytes
	ns := e.P.NumSources()
	demands := sc.demands[:0]
	owner := sc.idxMatrix(e.P.N, ns)
	for g := 0; g < e.P.N; g++ {
		total := 0.0
		for _, v := range vol[g] {
			total += v
		}
		for j := 0; j < ns; j++ {
			if vol[g][j] == 0 {
				continue
			}
			cores := float64(e.P.GPU.SMs) * vol[g][j] / total
			if cores < 1 {
				cores = 1
			}
			owner[g][j] = len(demands)
			demands = append(demands, sim.Demand{
				Bytes: vol[g][j], Cores: cores, RCore: e.P.RCore(g, platform.SourceID(j)),
				Path: e.route(g, j), PadTo: -1,
			})
		}
	}
	return e.runPlan(demands, owner, out, sc)
}
