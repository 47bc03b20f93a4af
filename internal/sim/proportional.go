package sim

import (
	"fmt"
	"math"
)

// PoolDemand is a demand participating in a proportional-drain run: it
// belongs to a core pool (a destination GPU) and, unlike Run's dedicated
// groups, has no fixed core count — cores distribute across the pool's
// demands the way randomly dispatched cores do.
type PoolDemand struct {
	Pool  int // core pool (destination GPU) index
	Bytes float64
	RCore float64
	Path  []LinkID
}

// Pool describes one destination GPU's core budget.
type Pool struct {
	Cores float64
}

// ProportionalResult reports a RunProportional outcome.
type ProportionalResult struct {
	// PoolTime[p] is the completion time of pool p's mixed queue.
	PoolTime []float64
	// Makespan is the maximum pool time.
	Makespan float64
	// LinkBytes[l] is the total bytes carried by link l.
	LinkBytes []float64
}

// RunProportional models the peer-based, randomly dispatched extraction of
// prior systems (paper §5.2): every core of a destination GPU draws keys
// from one mixed queue, so all sources drain proportionally and cores pile
// onto slow links, stalling there. The converged core distribution is the
// fixed point where all of a pool's demands finish together (or cannot be
// helped by more cores because the link, not the core, is the bottleneck).
func (t *Topology) RunProportional(demands []PoolDemand, pools []Pool) (*ProportionalResult, error) {
	n := len(demands)
	res := &ProportionalResult{
		PoolTime:  make([]float64, len(pools)),
		LinkBytes: make([]float64, len(t.Links)),
	}
	if n == 0 {
		return res, nil
	}
	poolBytes := make([]float64, len(pools))
	for i, d := range demands {
		if d.Pool < 0 || d.Pool >= len(pools) {
			return nil, fmt.Errorf("sim: demand %d references unknown pool %d", i, d.Pool)
		}
		if d.Bytes < 0 {
			return nil, fmt.Errorf("sim: demand %d has negative bytes", i)
		}
		if d.RCore <= 0 {
			return nil, fmt.Errorf("sim: demand %d has RCore %g", i, d.RCore)
		}
		for _, l := range d.Path {
			if int(l) < 0 || int(l) >= len(t.Links) {
				return nil, fmt.Errorf("sim: demand %d references unknown link %d", i, l)
			}
		}
		poolBytes[d.Pool] += d.Bytes
	}
	for p, pl := range pools {
		if pl.Cores <= 0 && poolBytes[p] > 0 {
			return nil, fmt.Errorf("sim: pool %d has no cores but %g bytes", p, poolBytes[p])
		}
	}

	// Initial shares proportional to bytes.
	share := make([]float64, n)
	for i, d := range demands {
		if poolBytes[d.Pool] > 0 {
			share[i] = d.Bytes / poolBytes[d.Pool]
		}
	}

	flows := make([]*flow, n)
	for i, d := range demands {
		flows[i] = &flow{idx: i, rem: d.Bytes, rcore: d.RCore, path: d.Path, padTo: -1}
	}
	const (
		iters   = 120
		damping = 0.5
		floor   = 1e-6
	)
	rates := make([]float64, n)
	resid := make([]float64, len(t.Links))
	weight := make([]float64, len(t.Links))
	for it := 0; it < iters; it++ {
		// Instantaneous allocation under the current core split.
		var active []*flow
		for i, f := range flows {
			f.cores = share[i] * pools[demands[i].Pool].Cores
			f.done = demands[i].Bytes == 0
			if !f.done {
				active = append(active, f)
			}
		}
		t.allocate(active, resid, weight)
		for i, f := range flows {
			rates[i] = f.rate
		}
		// Time each demand would need at this rate; demands that lag pull
		// cores toward themselves (that is random dispatch: the mixed queue
		// keeps cores busy on whatever is slowest to drain).
		next := make([]float64, n)
		poolSum := make([]float64, len(pools))
		for i, d := range demands {
			if d.Bytes == 0 {
				continue
			}
			tNeed := math.Inf(1)
			if rates[i] > 0 {
				tNeed = d.Bytes / rates[i]
			}
			w := share[i] * tNeed
			if math.IsInf(tNeed, 1) {
				// A starved demand (zero share after drift) restarts from
				// its byte share.
				w = d.Bytes / poolBytes[d.Pool]
			}
			if w < floor {
				w = floor
			}
			next[i] = w
			poolSum[d.Pool] += w
		}
		for i, d := range demands {
			if d.Bytes == 0 || poolSum[d.Pool] == 0 {
				continue
			}
			target := next[i] / poolSum[d.Pool]
			share[i] = damping*share[i] + (1-damping)*target
		}
	}

	// Final evaluation at the converged split.
	var active []*flow
	for i, f := range flows {
		f.cores = share[i] * pools[demands[i].Pool].Cores
		f.done = demands[i].Bytes == 0
		if !f.done {
			active = append(active, f)
		}
	}
	t.allocate(active, resid, weight)
	for i, d := range demands {
		if d.Bytes == 0 {
			continue
		}
		if flows[i].rate <= 0 {
			return nil, fmt.Errorf("sim: demand %d starved at fixed point", i)
		}
		tNeed := d.Bytes / flows[i].rate
		if tNeed > res.PoolTime[d.Pool] {
			res.PoolTime[d.Pool] = tNeed
		}
		for _, l := range d.Path {
			res.LinkBytes[l] += d.Bytes
		}
	}
	for _, pt := range res.PoolTime {
		if pt > res.Makespan {
			res.Makespan = pt
		}
	}
	return res, nil
}
