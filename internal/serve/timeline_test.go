package serve

import (
	"bytes"
	"testing"

	"ugache/internal/flight"
	"ugache/internal/timeline"
)

// TestServeTimelineSpans drives a functional server with a flight recorder
// attached and checks the span trees it draws: every flushed batch
// is a parent span with its phase children nested inside, each link flow
// sits on its GPU's source-class track and starts with that GPU's extract
// span, and the whole export passes the Chrome trace validator.
func TestServeTimelineSpans(t *testing.T) {
	sys, _ := buildFunctional(t, 3000)
	fl := flight.NewRecorder(sys.P.N, 256)
	srv, err := New(sys, Config{Flight: fl})
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
	var linkFlows []timeline.Event
	var root *timeline.Event
	_, events := flight.Draw(fl)
	for _, ev := range events {
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
			linkFlows = append(linkFlows, ev)
		}
	}
	if batches == 0 {
		t.Fatal("no batch spans drawn")
	}
	if len(linkFlows) == 0 {
		t.Fatal("no link-flow spans drawn")
	}
	for _, flow := range linkFlows {
		gpu := flow.TID / 4 // four source classes per GPU
		if flow.NArgs != 2 || flow.Args[0].Key != "bytes" || flow.Args[0].Val <= 0 ||
			flow.Args[1].Key != "seconds" || flow.Args[1].Val != flow.Dur || flow.Dur <= 0 {
			t.Fatalf("link flow %+v: want positive bytes and its seconds as duration", flow)
		}
		anchored := false
		for _, ev := range events {
			anchored = anchored || ev.PID == timeline.ProcServe && ev.TID == gpu && ev.Name == "extract" && ev.Start == flow.Start
		}
		if !anchored {
			t.Fatalf("link flow on track %d starts at %g, with no extract span of gpu %d", flow.TID, flow.Start, gpu)
		}
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
	for _, ev := range events {
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
	if _, err := flight.WriteTrace(&buf, fl); err != nil {
		t.Fatal(err)
	}
	rep, err := timeline.Validate(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n := rep.Names[timeline.ProcName{PID: timeline.ProcServe, Name: "batch"}]; n != batches {
		t.Fatalf("export has %d batch spans, recorder had %d", n, batches)
	}
}
