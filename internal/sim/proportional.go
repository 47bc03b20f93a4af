package sim

import (
	"fmt"
	"math"
)

// RunProportional models the peer-based, randomly dispatched extraction of
// prior systems (paper §5.2): every core of a destination GPU draws keys
// from one mixed queue, so all sources drain proportionally and cores pile
// onto slow links, stalling there. The converged core distribution is the
// fixed point where all of a pool's demands finish together (or cannot be
// helped by more cores because the link, not the core, is the bottleneck).
//
// A demand's Pool names the core pool (destination GPU) whose queue it sits
// in; every pool has cores cores, which the fixed point splits among its
// demands, so a demand's own Cores and PadTo are not read. The Result is
// Run's, with Finish[i] demand i's completion time at the fixed point, and
// aliases sc as Run's does.
func (t *Topology) RunProportional(demands []Demand, cores float64, sc *RunScratch) (*Result, error) {
	if sc == nil {
		sc = new(RunScratch)
	}
	flows, res, err := t.load(demands, sc)
	if err != nil {
		return nil, err
	}
	pools := 0
	total := 0.0
	for i, d := range demands {
		if d.Pool < 0 {
			return nil, fmt.Errorf("sim: demand %d references unknown pool %d", i, d.Pool)
		}
		if d.RCore <= 0 {
			return nil, fmt.Errorf("sim: demand %d has RCore %g", i, d.RCore)
		}
		pools = max(pools, d.Pool+1)
		total += d.Bytes
	}
	if cores <= 0 && total > 0 {
		return nil, fmt.Errorf("sim: pools have %g cores but %g bytes", cores, total)
	}
	n := len(demands)
	if n == 0 {
		return res, nil
	}
	sc.pool = growF64(sc.pool, 2*pools)
	poolBytes, poolSum := sc.pool[:pools], sc.pool[pools:]
	for _, d := range demands {
		poolBytes[d.Pool] += d.Bytes
	}

	// Initial shares proportional to bytes.
	sc.share = growF64(sc.share, n)
	sc.next = growF64(sc.next, n)
	share, next := sc.share, sc.next
	for i, d := range demands {
		if poolBytes[d.Pool] > 0 {
			share[i] = d.Bytes / poolBytes[d.Pool]
		}
	}

	const (
		iters   = 120
		damping = 0.5
		floor   = 1e-6
	)
	for it := 0; it < iters; it++ {
		// Instantaneous allocation under the current core split.
		t.allocate(sc.splitCores(flows, cores), sc.resid, sc.weight)
		// Time each demand would need at this rate; demands that lag pull
		// cores toward themselves (that is random dispatch: the mixed queue
		// keeps cores busy on whatever is slowest to drain).
		clear(poolSum)
		for i, d := range demands {
			if d.Bytes == 0 {
				continue
			}
			tNeed := math.Inf(1)
			if rate := flows[i].rate; rate > 0 {
				tNeed = d.Bytes / rate
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
	t.allocate(sc.splitCores(flows, cores), sc.resid, sc.weight)
	for i, d := range demands {
		if d.Bytes == 0 {
			continue
		}
		if flows[i].rate <= 0 {
			return nil, fmt.Errorf("sim: demand %d starved at fixed point", i)
		}
		res.Finish[i] = d.Bytes / flows[i].rate
		res.Makespan = max(res.Makespan, res.Finish[i])
		for _, l := range d.Path {
			res.LinkBytes[l] += d.Bytes
		}
	}
	return res, nil
}

// splitCores gives every flow its share of its pool's cores and returns the
// flows with bytes, in demand order: the active list of one allocation.
func (sc *RunScratch) splitCores(flows []*flow, cores float64) []*flow {
	for i, f := range flows {
		f.cores = sc.share[i] * cores
	}
	return appendActive(sc.active, flows)
}
