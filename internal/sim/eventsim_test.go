package sim

import (
	"math"
	"testing"

	"ugache/internal/rng"
)

// TestEventSimAgreesWithFluid cross-validates the two independent engines:
// on random small inputs, the discrete-event makespan must match the fluid
// makespan within the chunk-quantization error.
func TestEventSimAgreesWithFluid(t *testing.T) {
	r := rng.New(99)
	for trial := 0; trial < 60; trial++ {
		var topo Topology
		nLinks := 1 + r.Intn(4)
		for l := 0; l < nLinks; l++ {
			topo.AddLink("l", 20+r.Float64()*180)
		}
		nDemands := 1 + r.Intn(4)
		demands := make([]Demand, 0, nDemands)
		for d := 0; d < nDemands; d++ {
			path := []LinkID{LinkID(r.Intn(nLinks))}
			if r.Float64() < 0.4 {
				path = append(path, LinkID(r.Intn(nLinks)))
			}
			padTo := -1
			if d > 0 && r.Float64() < 0.3 {
				padTo = r.Intn(d)
			}
			demands = append(demands, Demand{
				Bytes: 500 + r.Float64()*2000,
				Cores: float64(2 + r.Intn(12)),
				RCore: 1 + r.Float64()*9,
				Path:  path,
				PadTo: padTo,
			})
		}
		fluid, err := topo.Run(append([]Demand(nil), demands...), nil)
		if err != nil {
			t.Fatalf("trial %d fluid: %v", trial, err)
		}
		event, err := topo.RunEvent(append([]Demand(nil), demands...), 4)
		if err != nil {
			t.Fatalf("trial %d event: %v", trial, err)
		}
		rel := math.Abs(event.Makespan-fluid.Makespan) / fluid.Makespan
		if rel > 0.12 {
			t.Fatalf("trial %d: engines disagree: fluid %g, event %g (%.1f%%)",
				trial, fluid.Makespan, event.Makespan, rel*100)
		}
		// Byte conservation must agree exactly.
		for l := range fluid.LinkBytes {
			if math.Abs(fluid.LinkBytes[l]-event.LinkBytes[l]) > 1e-6*(1+fluid.LinkBytes[l]) {
				t.Fatalf("trial %d: link %d bytes differ", trial, l)
			}
		}
	}
}

func TestEventSimConvergesToFluid(t *testing.T) {
	// Shrinking the chunk size must converge the event makespan toward the
	// fluid result.
	var topo Topology
	a := topo.AddLink("a", 50)
	b := topo.AddLink("b", 120)
	demands := []Demand{
		{Bytes: 3000, Cores: 10, RCore: 3, Path: []LinkID{a}, PadTo: 1},
		{Bytes: 5000, Cores: 6, RCore: 4, Path: []LinkID{b}, PadTo: -1},
	}
	fluid, err := topo.Run(append([]Demand(nil), demands...), nil)
	if err != nil {
		t.Fatal(err)
	}
	prevErr := math.Inf(1)
	for _, chunk := range []float64{512, 64, 8} {
		ev, err := topo.RunEvent(append([]Demand(nil), demands...), chunk)
		if err != nil {
			t.Fatal(err)
		}
		rel := math.Abs(ev.Makespan-fluid.Makespan) / fluid.Makespan
		if rel > prevErr*1.5 {
			t.Fatalf("chunk %g: error %g did not shrink (prev %g)", chunk, rel, prevErr)
		}
		prevErr = rel
	}
	if prevErr > 0.02 {
		t.Fatalf("finest chunk still off by %.2f%%", prevErr*100)
	}
}

func TestEventSimValidation(t *testing.T) {
	var topo Topology
	l := topo.AddLink("l", 10)
	d := []Demand{{Bytes: 10, Cores: 2, RCore: 1, Path: []LinkID{l}, PadTo: -1}}
	if _, err := topo.RunEvent(d, 0); err == nil {
		t.Fatal("zero chunk accepted")
	}
	if _, err := topo.RunEvent([]Demand{{Bytes: 10, Cores: 0, Path: []LinkID{l}, PadTo: -1}}, 4); err == nil {
		t.Fatal("starved demand accepted")
	}
}
