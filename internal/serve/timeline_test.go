package serve

import (
	"bytes"
	"testing"

	"ugache/internal/timeline"
)

// TestServeTimelineSpans drives a functional server with a timeline
// recorder attached and checks the exported span trees: every flushed batch
// is a parent span with its phase children nested inside, fluid-sim link
// flows land on the sim tracks with sane utilizations, and the whole export
// passes the Chrome trace validator.
func TestServeTimelineSpans(t *testing.T) {
	sys, _ := buildFunctional(t, 3000)
	rec := timeline.NewRecorder(sys.P.N, 4096)
	srv, err := New(sys, Config{Timeline: rec})
	if err != nil {
		t.Fatal(err)
	}
	keys := []int64{1, 7, 7, 2999, 42, 0}
	for i := 0; i < 4; i++ {
		for g := 0; g < 2; g++ {
			if _, err := srv.Lookup(g, keys); err != nil {
				t.Fatal(err)
			}
		}
	}
	srv.Close()

	type spanKey struct {
		tid  int32
		name string
	}
	batches := 0
	children := map[spanKey]int{}
	linkFlows := 0
	var root *timeline.Event
	for _, ev := range rec.Events() {
		ev := ev
		switch {
		case ev.PID == timeline.ProcServe && ev.Name == "batch":
			batches++
			if root == nil {
				root = &ev
			}
		case ev.PID == timeline.ProcServe:
			children[spanKey{ev.TID, ev.Name}]++
		case ev.PID == timeline.ProcSim && ev.Name == "link-flow":
			linkFlows++
			var util float64
			for i := int32(0); i < ev.NArgs; i++ {
				if ev.Args[i].Key == "util" {
					util = ev.Args[i].Val
				}
			}
			if util <= 0 || util > 1+1e-9 {
				t.Fatalf("link-flow util %g out of (0, 1]", util)
			}
		}
	}
	if batches == 0 {
		t.Fatal("no batch spans recorded")
	}
	if linkFlows == 0 {
		t.Fatal("no link-flow spans recorded")
	}
	for _, name := range []string{"queue-wait", "coalesce", "extract", "gather", "reply"} {
		found := false
		for k := range children {
			if k.name == name {
				found = true
			}
		}
		if !found {
			t.Fatalf("no %q child spans (children: %v)", name, children)
		}
	}

	// Children of the first batch nest within it (same tid, same tree).
	for _, ev := range rec.Events() {
		if ev.PID != timeline.ProcServe || ev.Name == "batch" || ev.TID != root.TID {
			continue
		}
		if ev.Start < root.Start+root.Dur+1e-9 && ev.Start+ev.Dur > root.Start+root.Dur+1e-6 {
			t.Fatalf("%s span [%g, %g] leaks past its batch [%g, %g]",
				ev.Name, ev.Start, ev.Start+ev.Dur, root.Start, root.Start+root.Dur)
		}
		break // only the first tree; later batches interleave
	}

	var buf bytes.Buffer
	if err := rec.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	rep, err := timeline.Validate(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Names["batch"] != batches {
		t.Fatalf("export has %d batch spans, recorder had %d", rep.Names["batch"], batches)
	}
}

// TestServeNoTimelineNoSpans pins the default: without a recorder the
// worker scratch carries no span shard and sim phase recording stays off.
func TestServeNoTimelineNoSpans(t *testing.T) {
	sys, _ := buildFunctional(t, 1000)
	srv, err := New(sys, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if _, err := srv.Lookup(0, []int64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if srv.tl != nil {
		t.Fatal("server has a recorder without one configured")
	}
}
