package sim

import "testing"

// TestPhaseLogRecording checks that a recording Run reproduces the
// run's structure: phase boundaries cover [0, makespan], per-link phase
// rates integrate back to LinkBytes, and no rate exceeds link capacity.
func TestPhaseLogRecording(t *testing.T) {
	var topo Topology
	hbm := topo.AddLink("hbm", 1000)
	nv := topo.AddLink("nvlink", 50)
	demands := []Demand{
		{Label: "local", Bytes: 400, Cores: 10, RCore: 1, Path: []LinkID{hbm}, PadTo: -1},
		{Label: "remote", Bytes: 100, Cores: 100, RCore: 1, Path: []LinkID{nv, hbm}, PadTo: 0},
	}
	sc := &RunScratch{Record: true}
	res, err := topo.Run(demands, sc)
	if err != nil {
		t.Fatal(err)
	}
	log := res.Phases
	if log == nil || log.Phases() == 0 {
		t.Fatal("recording run returned no phase log")
	}
	if log.Links != len(topo.Links) {
		t.Fatalf("log stride %d, want %d links", log.Links, len(topo.Links))
	}
	last := 0.0
	for p := 0; p < log.Phases(); p++ {
		if log.T[p] <= last {
			t.Fatalf("phase %d ends at %g, not after %g", p, log.T[p], last)
		}
		last = log.T[p]
	}
	almost(t, last, res.Makespan, 1e-9, "final phase boundary")

	// Integrate rate over phases per link and compare with LinkBytes.
	for l := range topo.Links {
		integ, start := 0.0, 0.0
		for p := 0; p < log.Phases(); p++ {
			rate := log.Rate[p*log.Links+l]
			if rate > topo.Links[l].Capacity+1e-9 {
				t.Fatalf("link %d phase %d rate %g exceeds capacity %g",
					l, p, rate, topo.Links[l].Capacity)
			}
			integ += rate * (log.T[p] - start)
			start = log.T[p]
		}
		almost(t, integ, res.LinkBytes[l], 1e-6, "integrated phase rates")
	}
}

// TestPhaseLogReusedAcrossRuns checks the reset semantics: the second run's
// log replaces the first's, and a non-recording scratch leaves Phases nil.
func TestPhaseLogReusedAcrossRuns(t *testing.T) {
	var topo Topology
	link := topo.AddLink("l", 10)
	sc := &RunScratch{Record: true}
	one := []Demand{{Bytes: 100, Cores: 10, RCore: 1, Path: []LinkID{link}, PadTo: -1}}
	if _, err := topo.Run(one, sc); err != nil {
		t.Fatal(err)
	}
	firstPhases := sc.Log.Phases()
	res, err := topo.Run(one, sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Phases.Phases() != firstPhases {
		t.Fatalf("second identical run recorded %d phases, first %d",
			res.Phases.Phases(), firstPhases)
	}
	sc.Record = false
	res, err = topo.Run(one, sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Phases != nil {
		t.Fatal("non-recording run still exposed a phase log")
	}
}
