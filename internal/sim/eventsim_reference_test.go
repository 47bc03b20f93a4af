package sim

import (
	"fmt"
	"math"
	"sort"
)

// RunEvent is an independent, discrete-event cross-check of Run: instead of
// fluid phases, it simulates individual cores drawing fixed-size chunks of
// work from each demand's queue, paying per-chunk transfer times under
// instantaneous fair link sharing. It is O(chunks · links) — far slower
// than the fluid engine — and exists purely to validate Run's results on
// small inputs (the two models must agree within the chunk-quantization
// error).
//
// chunkBytes sets the work granularity (smaller = closer to the fluid
// limit, slower).
func (t *Topology) RunEvent(demands []Demand, chunkBytes float64) (*Result, error) {
	if chunkBytes <= 0 {
		return nil, fmt.Errorf("sim: chunkBytes must be positive")
	}
	// Validate like Run.
	for i, d := range demands {
		if d.Bytes < 0 || d.Cores < 0 || (d.Cores > 0 && d.RCore <= 0) {
			return nil, fmt.Errorf("sim: demand %d invalid", i)
		}
		for _, l := range d.Path {
			if int(l) < 0 || int(l) >= len(t.Links) {
				return nil, fmt.Errorf("sim: demand %d references unknown link %d", i, l)
			}
		}
		if d.PadTo >= len(demands) {
			return nil, fmt.Errorf("sim: demand %d pads into unknown demand %d", i, d.PadTo)
		}
	}

	type core struct {
		demand int     // demand whose chunk this core is serving (-1 idle)
		rem    float64 // bytes left in the current chunk
	}
	// Integer core counts approximate the (possibly fractional) dedication.
	var cores []core
	remaining := make([]float64, len(demands)) // unchunked queue bytes
	chunksOut := make([]int, len(demands))     // chunks in flight
	coreCount := make([]int, len(demands))
	finish := make([]float64, len(demands))
	done := make([]bool, len(demands))
	for i, d := range demands {
		remaining[i] = d.Bytes
		n := int(math.Round(d.Cores))
		coreCount[i] = n
		if d.Bytes == 0 {
			done[i] = true
		}
		for c := 0; c < n; c++ {
			cores = append(cores, core{demand: i})
		}
	}

	// assign hands an idle core a chunk from its demand's queue.
	assign := func(c *core) {
		d := c.demand
		if d < 0 || remaining[d] <= 0 {
			c.rem = 0
			return
		}
		chunk := math.Min(chunkBytes, remaining[d])
		remaining[d] -= chunk
		c.rem = chunk
		chunksOut[d]++
	}
	for i := range cores {
		assign(&cores[i])
	}

	now := 0.0
	guard := 0
	maxSteps := 4 * int(totalBytes(demands)/chunkBytes+10) * (len(demands) + 1)
	for {
		guard++
		if guard > maxSteps {
			return nil, fmt.Errorf("sim: event simulation did not converge")
		}
		// Instantaneous rates: fair share per active core over its path.
		type flowAgg struct {
			cores int
			rcore float64
		}
		active := map[int]*flowAgg{}
		for i := range cores {
			c := &cores[i]
			if c.rem > 0 {
				fa := active[c.demand]
				if fa == nil {
					fa = &flowAgg{rcore: demands[c.demand].RCore}
					active[c.demand] = fa
				}
				fa.cores++
			}
		}
		if len(active) == 0 {
			break
		}
		// Water-fill across demands with active chunks (reuse allocate).
		var flows []*flow
		idx := map[int]*flow{}
		for d, fa := range active {
			f := &flow{
				idx: d, cores: float64(fa.cores), rcore: fa.rcore,
				path: demands[d].Path, padTo: -1,
			}
			flows = append(flows, f)
			idx[d] = f
		}
		sort.Slice(flows, func(i, j int) bool { return flows[i].idx < flows[j].idx })
		t.allocate(flows, make([]float64, len(t.Links)), make([]float64, len(t.Links)))

		// Advance to the next chunk completion.
		dt := math.Inf(1)
		for i := range cores {
			c := &cores[i]
			if c.rem <= 0 {
				continue
			}
			f := idx[c.demand]
			perCore := f.rate / f.cores
			if perCore <= 0 {
				continue
			}
			if d := c.rem / perCore; d < dt {
				dt = d
			}
		}
		if math.IsInf(dt, 1) {
			return nil, errStarved
		}
		now += dt
		for i := range cores {
			c := &cores[i]
			if c.rem <= 0 {
				continue
			}
			f := idx[c.demand]
			perCore := f.rate / f.cores
			c.rem -= perCore * dt
			if c.rem <= 1e-9*chunkBytes {
				c.rem = 0
				d := c.demand
				chunksOut[d]--
				if remaining[d] > 0 {
					assign(c)
				} else if chunksOut[d] == 0 && !done[d] {
					done[d] = true
					finish[d] = now
					// Hand cores to the pad target.
					if pt := demands[d].PadTo; pt >= 0 && !done[pt] {
						for j := range cores {
							if cores[j].demand == d && cores[j].rem == 0 {
								cores[j].demand = pt
								assign(&cores[j])
							}
						}
					}
				}
			}
		}
	}
	for i := range demands {
		if !done[i] {
			return nil, errStarved
		}
	}
	res := &Result{Finish: finish, LinkBytes: make([]float64, len(t.Links))}
	for i, d := range demands {
		for _, l := range d.Path {
			res.LinkBytes[l] += d.Bytes
		}
		if finish[i] > res.Makespan {
			res.Makespan = finish[i]
		}
	}
	return res, nil
}

func totalBytes(demands []Demand) float64 {
	s := 0.0
	for _, d := range demands {
		s += d.Bytes
	}
	return s
}
