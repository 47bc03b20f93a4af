// Package sim implements the deterministic fluid-flow bandwidth engine that
// stands in for real GPU hardware in this reproduction.
//
// An embedding extraction is modelled as a set of Demands: a group of GPU
// cores (SMs) on a destination device moving a number of bytes from one
// source location across a path of Links. Each core can issue at most RCore
// bytes/s (the gather issue rate of one SM), and each link caps the total
// rate of all flows crossing it. Bandwidth is divided by weighted max-min
// fairness (water-filling), which reproduces the phenomena the paper builds
// on:
//
//   - link tolerance: a link of capacity B saturates once B/RCore cores read
//     through it (paper Fig. 6);
//   - congestion and core stall: cores beyond the tolerance receive less than
//     RCore each and are stalled — they occupy the core budget while the link,
//     not the core, is the bottleneck (paper §5.2);
//   - NVSwitch collision: per-GPU outbound/inbound links are shared across
//     concurrent readers (paper Fig. 6b, right).
//
// The engine advances in phases: rates are fixed between demand completions,
// and completed demands may hand their cores to another demand (PadTo),
// which models UGache's local extraction padding (paper §5.3).
package sim

import (
	"errors"
	"fmt"
	"math"
)

// LinkID names a link inside a Topology.
type LinkID int

// Link is a shared bandwidth resource (HBM port, NVLink pair, NVSwitch
// outbound/inbound port, PCIe lane, host DRAM).
type Link struct {
	Name     string
	Capacity float64 // bytes per second; must be > 0
}

// Topology is the set of links demands can route over.
type Topology struct {
	Links []Link
}

// AddLink appends a link and returns its ID.
func (t *Topology) AddLink(name string, capacity float64) LinkID {
	if capacity <= 0 {
		panic(fmt.Sprintf("sim: link %q has non-positive capacity %g", name, capacity))
	}
	t.Links = append(t.Links, Link{Name: name, Capacity: capacity})
	return LinkID(len(t.Links) - 1)
}

// Demand is one core group moving bytes from a source over a path of links.
type Demand struct {
	Bytes float64 // bytes to move; >= 0
	Cores float64 // dedicated cores; may be fractional; >= 0
	RCore float64 // per-core issue rate cap in bytes/s; > 0 if Cores > 0
	Path  []LinkID
	// PadTo, if >= 0, names the demand (by index in the Run slice) that
	// inherits this demand's cores on completion. Cores accumulate: several
	// non-local groups may pad into the same local group.
	PadTo int
	// Pool is the core pool (destination GPU) whose mixed queue the demand
	// sits in under RunProportional; Run does not read it.
	Pool int
}

// Result reports the outcome of a Run or RunProportional call.
type Result struct {
	// Finish[i] is the completion time of demand i in seconds. A demand with
	// zero bytes finishes at 0.
	Finish []float64
	// Makespan is the time at which the last demand finished.
	Makespan float64
	// LinkBytes[l] is the total bytes carried by link l; utilization over the
	// run is LinkBytes[l] / (Capacity[l] * Makespan).
	LinkBytes []float64
	// Phases points at the scratch's phase log when Run was called with a
	// RunScratch whose Record flag is set; nil otherwise. It aliases the
	// scratch and is valid only until the scratch's next Run call.
	Phases *PhaseLog
}

// errStarved reports a demand that can never complete because it has bytes
// to move but no cores and no padding source.
var errStarved = errors.New("sim: demand has bytes but can never receive cores")

type flow struct {
	idx    int     // demand index
	rem    float64 // remaining bytes
	cores  float64
	rcore  float64
	path   []LinkID
	padTo  int
	done   bool
	rate   float64 // current allocation, set by allocate
	frozen bool    // scratch for the allocator
}

// PhaseLog is the per-phase rate history of one Run call: the fluid
// simulation advances in phases (rates are constant between demand
// completions), and the log keeps each phase's end time plus the aggregate
// allocated rate on every link during that phase — the information the
// paper's Fig. 6 link-congestion curves are drawn from. Buffers are reused
// across runs; a log aliases its RunScratch and is valid only until the
// scratch's next Run call.
type PhaseLog struct {
	// T[p] is the end time of phase p in seconds; phase p covers
	// [T[p-1], T[p]) with T[-1] = 0.
	T []float64
	// Rate holds the per-phase per-link aggregate allocated rates in
	// bytes/s, row-major by phase: Rate[p*Links+l] is link l's total rate
	// during phase p.
	Rate []float64
	// Links is the row stride of Rate (the topology's link count).
	Links int
}

// Phases returns the number of recorded phases.
func (pl *PhaseLog) Phases() int { return len(pl.T) }

// RunScratch holds the reusable working state of Run and RunProportional so
// steady-state simulation runs stop allocating: the flow table, the active
// list, the allocator's residual/weight buffers, the result slices, and the
// fixed point's shares and per-pool sums. A RunScratch is owned by one
// goroutine at a time (workers keep their own, or recycle through a
// sync.Pool).
type RunScratch struct {
	flows  []flow  // value-allocated flow table, one per demand
	ptrs   []*flow // stable pointers into flows, reused across runs
	active []*flow // per-phase filtered list
	resid  []float64
	weight []float64
	finish []float64
	bytes  []float64
	share  []float64 // RunProportional: each demand's share of its pool
	next   []float64 // RunProportional: each demand's next-share weight
	pool   []float64 // RunProportional: per-pool bytes, then weight sums

	// Record enables phase logging: each Run call then resets and
	// refills Log, and the returned Result points at it. Off (the default)
	// the only cost is one boolean check per phase, preserving the
	// BENCH_hotpath.json allocation budget of the tracing-off serving path.
	Record bool
	// Log holds the last recorded run's phase history; see PhaseLog for the
	// aliasing contract.
	Log PhaseLog
}

func growF64(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = 0
	}
	return buf
}

// Run simulates the demands to completion and returns per-demand finish
// times. Demands run concurrently from t=0 (subject to having cores; a
// demand with zero cores waits for padding). The Result's Finish and
// LinkBytes slices are sc's, valid only until its next Run, and callers that
// need them longer must copy. A nil sc means a fresh one of the call's own,
// so the Result is the caller's to keep.
func (t *Topology) Run(demands []Demand, sc *RunScratch) (*Result, error) {
	if sc == nil {
		sc = new(RunScratch)
	}
	flows, res, err := t.load(demands, sc)
	if err != nil {
		return nil, err
	}
	activeBuf, resid, weight := sc.active, sc.resid, sc.weight
	if sc.Record {
		sc.Log.T = sc.Log.T[:0]
		sc.Log.Rate = sc.Log.Rate[:0]
		sc.Log.Links = len(t.Links)
		res.Phases = &sc.Log
	}

	now := 0.0
	// Each phase completes at least one demand, so phases <= len(demands);
	// the extra headroom guards against float stagnation.
	for phase := 0; phase <= 2*len(demands)+4; phase++ {
		active := appendActive(activeBuf, flows)
		if len(active) == 0 {
			break
		}
		t.allocate(active, resid, weight)

		// Find the next completion among flows that are actually moving.
		dt := math.Inf(1)
		moving := false
		for _, f := range active {
			if f.rate > 0 {
				moving = true
				if d := f.rem / f.rate; d < dt {
					dt = d
				}
			}
		}
		if !moving {
			// Remaining demands have no cores and nothing left to pad them.
			return nil, errStarved
		}

		// Record this phase's boundary and per-link aggregate rates. The
		// append stays within capacity at steady state, so recording keeps
		// the allocation-free discipline once warmed up.
		if sc.Record {
			base := len(sc.Log.Rate)
			need := base + len(t.Links)
			if cap(sc.Log.Rate) < need {
				grown := make([]float64, need, 2*need)
				copy(grown, sc.Log.Rate)
				sc.Log.Rate = grown
			} else {
				sc.Log.Rate = sc.Log.Rate[:need]
			}
			row := sc.Log.Rate[base:need]
			for i := range row {
				row[i] = 0
			}
			for _, f := range active {
				if f.rate <= 0 {
					continue
				}
				for _, l := range f.path {
					row[l] += f.rate
				}
			}
			sc.Log.T = append(sc.Log.T, now+dt)
		}

		// Advance time; account carried bytes per link.
		for _, f := range active {
			if f.rate <= 0 {
				continue
			}
			moved := f.rate * dt
			if moved > f.rem {
				moved = f.rem
			}
			f.rem -= moved
			for _, l := range f.path {
				res.LinkBytes[l] += moved
			}
		}
		now += dt

		// Retire completed flows and hand cores to their pad target.
		const eps = 1e-9
		for _, f := range active {
			if f.rem <= eps*(1+f.rate) {
				f.rem = 0
				f.done = true
				res.Finish[f.idx] = now
				if f.padTo >= 0 && !flows[f.padTo].done {
					tgt := flows[f.padTo]
					tgt.cores += f.cores
					if tgt.rcore <= 0 {
						tgt.rcore = f.rcore
					}
				}
			}
		}
	}
	for _, f := range flows {
		if !f.done {
			return nil, fmt.Errorf("sim: simulation did not converge (%d flows stuck)", len(appendActive(nil, flows)))
		}
	}
	for _, ft := range res.Finish {
		if ft > res.Makespan {
			res.Makespan = ft
		}
	}
	return res, nil
}

// RunWith runs as Run does. It goes once benchmark/ stops calling it.
func (t *Topology) RunWith(demands []Demand, sc *RunScratch) (*Result, error) {
	return t.Run(demands, sc)
}

// load is the set-up Run and RunProportional share: it sizes sc for the
// demands and t's links, validates every demand and writes its flow, and
// returns the flow table and a zeroed Result over sc's slices.
func (t *Topology) load(demands []Demand, sc *RunScratch) ([]*flow, *Result, error) {
	if cap(sc.flows) < len(demands) {
		sc.flows = make([]flow, len(demands))
		sc.ptrs = make([]*flow, len(demands))
		for i := range sc.flows {
			sc.ptrs[i] = &sc.flows[i]
		}
		sc.active = make([]*flow, 0, len(demands))
	}
	sc.flows = sc.flows[:len(demands)]
	flows := sc.ptrs[:len(demands)]
	sc.resid = growF64(sc.resid, len(t.Links))
	sc.weight = growF64(sc.weight, len(t.Links))
	sc.finish = growF64(sc.finish, len(demands))
	sc.bytes = growF64(sc.bytes, len(t.Links))
	for i, d := range demands {
		if d.Bytes < 0 {
			return nil, nil, fmt.Errorf("sim: demand %d has negative bytes", i)
		}
		if d.Cores < 0 {
			return nil, nil, fmt.Errorf("sim: demand %d has negative cores", i)
		}
		if d.Cores > 0 && d.RCore <= 0 {
			return nil, nil, fmt.Errorf("sim: demand %d has cores but RCore %g", i, d.RCore)
		}
		for _, l := range d.Path {
			if int(l) < 0 || int(l) >= len(t.Links) {
				return nil, nil, fmt.Errorf("sim: demand %d references unknown link %d", i, l)
			}
		}
		if d.PadTo >= len(demands) {
			return nil, nil, fmt.Errorf("sim: demand %d pads into unknown demand %d", i, d.PadTo)
		}
		*flows[i] = flow{
			idx: i, rem: d.Bytes, cores: d.Cores, rcore: d.RCore,
			path: d.Path, padTo: d.PadTo, done: d.Bytes == 0,
		}
	}
	return flows, &Result{Finish: sc.finish, LinkBytes: sc.bytes}, nil
}

// appendActive filters the not-yet-done flows into buf (reused across
// phases when the caller passes a scratch-backed slice).
func appendActive(buf []*flow, flows []*flow) []*flow {
	out := buf[:0]
	for _, f := range flows {
		if !f.done {
			out = append(out, f)
		}
	}
	return out
}

// allocate performs weighted max-min fair allocation across links with
// per-flow rate caps (cores * rcore). Weight is the flow's core count, so a
// group with more cores wins a proportionally larger share of a contended
// link, matching how more SMs win more memory bandwidth. resid and weight
// are caller-provided buffers of len(t.Links); allocate overwrites them.
func (t *Topology) allocate(active []*flow, resid, weight []float64) {
	for i, l := range t.Links {
		resid[i] = l.Capacity
	}
	for _, f := range active {
		f.frozen = false
		f.rate = 0
	}
	unfrozen := len(active)
	for _, f := range active {
		if f.cores <= 0 {
			// No cores: cannot move data this phase.
			f.frozen = true
			unfrozen--
		}
	}
	for unfrozen > 0 {
		// Per-link total unfrozen weight.
		for i := range weight {
			weight[i] = 0
		}
		for _, f := range active {
			if f.frozen {
				continue
			}
			for _, l := range f.path {
				weight[l] += f.cores
			}
		}
		// Bottleneck link ratio.
		linkRatio := math.Inf(1)
		linkIdx := -1
		for l := range t.Links {
			if weight[l] <= 0 {
				continue
			}
			r := resid[l] / weight[l]
			if r < linkRatio {
				linkRatio = r
				linkIdx = l
			}
		}
		// Flow cap ratio (a flow that caps out below the bottleneck share
		// must be frozen first, releasing bandwidth to others).
		capRatio := math.Inf(1)
		capIdx := -1
		for i, f := range active {
			if f.frozen {
				continue
			}
			r := f.rcore // per-core cap; comparable to per-weight link ratio
			if r < capRatio {
				capRatio = r
				capIdx = i
			}
		}
		switch {
		case capIdx >= 0 && capRatio < linkRatio:
			f := active[capIdx]
			f.rate = f.cores * f.rcore
			f.frozen = true
			unfrozen--
			for _, l := range f.path {
				resid[l] -= f.rate
				if resid[l] < 0 {
					resid[l] = 0
				}
			}
		case linkIdx >= 0:
			for _, f := range active {
				if f.frozen {
					continue
				}
				onLink := false
				for _, l := range f.path {
					if l == LinkID(linkIdx) {
						onLink = true
						break
					}
				}
				if !onLink {
					continue
				}
				f.rate = linkRatio * f.cores
				f.frozen = true
				unfrozen--
				for _, l := range f.path {
					resid[l] -= f.rate
					if resid[l] < 0 {
						resid[l] = 0
					}
				}
			}
		default:
			// No constraining link and no cap: flows with no path are
			// limited only by their core rate (shouldn't occur: capRatio
			// is finite whenever cores > 0). Freeze everything to exit.
			for _, f := range active {
				if !f.frozen {
					f.rate = f.cores * f.rcore
					f.frozen = true
					unfrozen--
				}
			}
		}
	}
}
