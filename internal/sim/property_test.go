package sim

import (
	"math"
	"testing"

	"ugache/internal/rng"
)

// TestRunPhysicalBounds drives the engine with random topologies and
// demands and checks physics: no demand beats its own core rate or its
// narrowest link, and the makespan is at least every link's aggregate
// lower bound.
func TestRunPhysicalBounds(t *testing.T) {
	r := rng.New(1234)
	for trial := 0; trial < 300; trial++ {
		var topo Topology
		nLinks := 1 + r.Intn(6)
		for l := 0; l < nLinks; l++ {
			topo.AddLink("l", 1+r.Float64()*99)
		}
		nDemands := 1 + r.Intn(6)
		demands := make([]Demand, 0, nDemands)
		for d := 0; d < nDemands; d++ {
			pathLen := 1 + r.Intn(2)
			path := make([]LinkID, 0, pathLen)
			for k := 0; k < pathLen; k++ {
				path = append(path, LinkID(r.Intn(nLinks)))
			}
			padTo := -1
			if d > 0 && r.Float64() < 0.3 {
				padTo = r.Intn(d) // pad into an earlier demand
			}
			demands = append(demands, Demand{
				Bytes: 1 + r.Float64()*999,
				Cores: 1 + float64(r.Intn(32)),
				RCore: 0.5 + r.Float64()*4,
				Path:  path,
				PadTo: padTo,
			})
		}
		res, err := topo.Run(demands, nil)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// Per-link aggregate bound: carried bytes / capacity <= makespan.
		for l, bytes := range res.LinkBytes {
			if bytes/topo.Links[l].Capacity > res.Makespan*(1+1e-6)+1e-9 {
				t.Fatalf("trial %d: link %d carried %g bytes over cap %g within %g s",
					trial, l, bytes, topo.Links[l].Capacity, res.Makespan)
			}
		}
		// Per-demand: cannot finish faster than its own narrowest link
		// allows for its bytes (even with every core).
		for i, d := range demands {
			minCap := math.Inf(1)
			for _, l := range d.Path {
				if c := topo.Links[l].Capacity; c < minCap {
					minCap = c
				}
			}
			if lb := d.Bytes / minCap; res.Finish[i] < lb*(1-1e-6)-1e-9 {
				t.Fatalf("trial %d: demand %d finished at %g, link bound %g",
					trial, i, res.Finish[i], lb)
			}
		}
		// Byte conservation per link.
		want := make([]float64, nLinks)
		for _, d := range demands {
			for _, l := range d.Path {
				want[l] += d.Bytes
			}
		}
		for l := range want {
			if math.Abs(want[l]-res.LinkBytes[l]) > 1e-6*(1+want[l]) {
				t.Fatalf("trial %d: link %d carried %g, want %g", trial, l, res.LinkBytes[l], want[l])
			}
		}
	}
}

// TestRunMonotoneInBytes checks that adding bytes to any demand cannot
// shrink the makespan.
func TestRunMonotoneInBytes(t *testing.T) {
	r := rng.New(77)
	for trial := 0; trial < 100; trial++ {
		var topo Topology
		a := topo.AddLink("a", 10+r.Float64()*90)
		b := topo.AddLink("b", 10+r.Float64()*90)
		base := []Demand{
			{Bytes: 100 + r.Float64()*400, Cores: 8, RCore: 2, Path: []LinkID{a}, PadTo: -1},
			{Bytes: 100 + r.Float64()*400, Cores: 8, RCore: 2, Path: []LinkID{a, b}, PadTo: -1},
			{Bytes: 100 + r.Float64()*400, Cores: 8, RCore: 2, Path: []LinkID{b}, PadTo: -1},
		}
		r1, err := topo.Run(append([]Demand(nil), base...), nil)
		if err != nil {
			t.Fatal(err)
		}
		bigger := append([]Demand(nil), base...)
		idx := r.Intn(len(bigger))
		bigger[idx].Bytes *= 1.5
		r2, err := topo.Run(bigger, nil)
		if err != nil {
			t.Fatal(err)
		}
		if r2.Makespan < r1.Makespan*(1-1e-9) {
			t.Fatalf("trial %d: makespan shrank from %g to %g after adding bytes",
				trial, r1.Makespan, r2.Makespan)
		}
	}
}

// TestProportionalAtLeastAsSlowAsDedicated checks the mixed-queue model
// never beats a well-dedicated run of the same demands (work conservation:
// random dispatch cannot create bandwidth).
func TestProportionalAtLeastAsSlowAsDedicated(t *testing.T) {
	r := rng.New(55)
	for trial := 0; trial < 60; trial++ {
		var topo Topology
		fast := topo.AddLink("fast", 100)
		slow := topo.AddLink("slow", 5+r.Float64()*10)
		fastB := 200 + r.Float64()*800
		slowB := 20 + r.Float64()*80
		cores := 16.0

		prop, err := topo.RunProportional([]Demand{
			{Pool: 0, Bytes: fastB, RCore: 2, Path: []LinkID{fast}},
			{Pool: 0, Bytes: slowB, RCore: 2, Path: []LinkID{slow}},
		}, cores, nil)
		if err != nil {
			t.Fatal(err)
		}
		// Work-conserving lower bound: max(core-time, per-link bounds).
		coreBound := (fastB + slowB) / (cores * 2)
		linkBound := math.Max(fastB/100, slowB/topo.Links[slow].Capacity)
		lb := math.Max(coreBound, linkBound)
		if prop.Makespan < lb*(1-1e-6) {
			t.Fatalf("trial %d: proportional %g beat the physical bound %g",
				trial, prop.Makespan, lb)
		}
	}
}

// TestRunScratchReuse alternates Run and RunProportional on one RunScratch
// over demand sets of different sizes and pool counts, and checks every
// result is bit-identical to the same call on a fresh scratch: neither entry
// point reads a buffer the other, or an earlier larger run, left behind.
func TestRunScratchReuse(t *testing.T) {
	r := rng.New(91)
	var topo Topology
	links := make([]LinkID, 6)
	for i := range links {
		links[i] = topo.AddLink("l", 20+r.Float64()*200)
	}
	path := func() []LinkID {
		p := []LinkID{links[r.Intn(len(links))]}
		if r.Intn(2) == 0 {
			p = append(p, links[r.Intn(len(links))])
		}
		return p
	}
	sameBits := func(a, b []float64) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				return false
			}
		}
		return true
	}
	var sc RunScratch
	for round := 0; round < 16; round++ {
		n := 2 + (round*5)%11
		proportional := round%2 == 1
		pools := 1 + (round/2)%4
		demands := make([]Demand, n)
		for i := range demands {
			demands[i] = Demand{Bytes: 100 + r.Float64()*900, RCore: 1 + r.Float64()*4, Path: path(), PadTo: -1}
			if r.Intn(5) == 0 {
				demands[i].Bytes = 0
			}
			if proportional {
				demands[i].Pool = r.Intn(pools)
			} else {
				demands[i].Cores = 1 + float64(r.Intn(8))
			}
		}
		run := func(sc *RunScratch) (*Result, error) {
			if proportional {
				return topo.RunProportional(demands, 16, sc)
			}
			return topo.Run(demands, sc)
		}
		want, err := run(nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := run(&sc)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got.Makespan) != math.Float64bits(want.Makespan) ||
			!sameBits(got.Finish, want.Finish) || !sameBits(got.LinkBytes, want.LinkBytes) {
			t.Fatalf("round %d (proportional %v, %d demands, %d pools): reused scratch gives makespan %v finish %v links %v, fresh gives %v %v %v",
				round, proportional, n, pools, got.Makespan, got.Finish, got.LinkBytes, want.Makespan, want.Finish, want.LinkBytes)
		}
	}
}
