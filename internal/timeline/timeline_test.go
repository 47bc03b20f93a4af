package timeline

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden files")

// fixedTrace names tracks and returns, in no particular order, a
// deterministic event set exercising every phase, every taxonomy pid, args,
// and name escaping. Starts are explicit, so the wall clock never enters and
// the output is byte-stable.
func fixedTrace() (Tracks, []Event) {
	tracks := Tracks{
		Procs: map[int32]string{ProcServe: "serve", ProcSim: "fluid-sim links", ProcControl: "control"},
		Threads: map[[2]int32]string{
			{ProcServe, 0}: "gpu 0 worker", {ProcServe, 1}: "gpu 1 worker",
			{ProcSim, 0}: `nvlink "a"-"b"`, {ProcControl, TIDRefresh}: "cache refresh",
		},
	}
	batch := Event{Name: "batch", Cat: "serve", Ph: PhSpan, PID: ProcServe, TID: 0, Start: 0.001, Dur: 0.0025}
	batch.AddArg("requests", 3)
	batch.AddArg("unique_keys", 1234)
	child := Event{Name: "extract", Cat: "serve", Ph: PhSpan, PID: ProcServe, TID: 0, Start: 0.0012, Dur: 0.0018}
	// Same start as batch on another tid: exercises the sort tie-breaks.
	other := Event{Name: "batch", Cat: "serve", Ph: PhSpan, PID: ProcServe, TID: 1, Start: 0.001, Dur: 0.002}
	link := Event{Name: "link-flow", Cat: "sim", Ph: PhSpan, PID: ProcSim, TID: 0, Start: 0.0012, Dur: 0.0009}
	link.AddArg("util", 0.75)
	link.AddArg("rate_bytes_per_s", 1.8e11)
	inst := Event{Name: "refresh-update-steps-truncated", Cat: "refresh", Ph: PhInstant, PID: ProcControl, TID: TIDRefresh, Start: 0.004}
	inst.AddArg("omitted_steps", 17)
	ctr := Event{Name: "queue_depth", Cat: "serve", Ph: PhCounter, PID: ProcServe, TID: 0, Start: 0.002}
	ctr.AddArg("depth", 5)
	return tracks, []Event{batch, child, inst, ctr, other, link}
}

// written sorts events and writes them with tracks.
func written(t *testing.T, tracks Tracks, events []Event) []byte {
	t.Helper()
	Sort(events)
	var buf bytes.Buffer
	if err := Write(&buf, tracks, events); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestWriteTraceGolden(t *testing.T) {
	tracks, events := fixedTrace()
	got := written(t, tracks, events)
	golden := filepath.Join("testdata", "trace.golden.json")
	if *updateGolden {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run go test ./internal/timeline -update-golden to create)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("export differs from golden file.\ngot:\n%s\nwant:\n%s", got, want)
	}

	// The same events in reverse order sort to identical bytes.
	tracks, events = fixedTrace()
	slices.Reverse(events)
	if !bytes.Equal(written(t, tracks, events), want) {
		t.Fatal("the same events drawn in another order wrote different bytes")
	}
}

func TestWriteTraceValidates(t *testing.T) {
	tracks, events := fixedTrace()
	rep, err := Validate(bytes.NewReader(written(t, tracks, events)))
	if err != nil {
		t.Fatal(err)
	}
	// 6 drawn events + 3 process_name + 4 thread_name metadata.
	if rep.Events != 13 {
		t.Fatalf("validated %d events, want 13", rep.Events)
	}
	if rep.ByPhase["X"] != 4 || rep.ByPhase["i"] != 1 || rep.ByPhase["C"] != 1 || rep.ByPhase["M"] != 7 {
		t.Fatalf("phase counts %v", rep.ByPhase)
	}
	if rep.Names[ProcName{ProcServe, "batch"}] != 2 || rep.Names[ProcName{ProcSim, "link-flow"}] != 1 {
		t.Fatalf("name counts %v", rep.Names)
	}
	if rep.ByPID[ProcServe] != 4+3 { // 4 serve events + 3 serve metadata
		t.Fatalf("pid counts %v", rep.ByPID)
	}
}

func TestValidateRejectsBadTraces(t *testing.T) {
	cases := map[string]string{
		"not json":      `{`,
		"no array":      `{"displayTimeUnit":"ms"}`,
		"missing ph":    `{"traceEvents":[{"pid":1,"tid":0,"name":"x","ts":0}]}`,
		"missing name":  `{"traceEvents":[{"ph":"X","pid":1,"tid":0,"ts":0}]}`,
		"missing pid":   `{"traceEvents":[{"ph":"X","tid":0,"name":"x","ts":0}]}`,
		"missing ts":    `{"traceEvents":[{"ph":"X","pid":1,"tid":0,"name":"x"}]}`,
		"negative ts":   `{"traceEvents":[{"ph":"X","pid":1,"tid":0,"name":"x","ts":-1,"dur":1}]}`,
		"negative dur":  `{"traceEvents":[{"ph":"X","pid":1,"tid":0,"name":"x","ts":1,"dur":-1}]}`,
		"ts wrong type": `{"traceEvents":[{"ph":"X","pid":1,"tid":0,"name":"x","ts":"now"}]}`,
	}
	for label, doc := range cases {
		if _, err := Validate(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: accepted", label)
		}
	}
	if rep, err := Validate(strings.NewReader(`{"traceEvents":[]}`)); err != nil || rep.Events != 0 {
		t.Errorf("empty traceEvents rejected: %v", err)
	}
}

func TestEventOrdering(t *testing.T) {
	// Child drawn before parent; equal starts must order parent (longer
	// dur) first so trace viewers nest correctly.
	evs := []Event{
		{Name: "child", Ph: PhSpan, PID: 1, TID: 0, Start: 1, Dur: 0.5},
		{Name: "parent", Ph: PhSpan, PID: 1, TID: 0, Start: 1, Dur: 2},
	}
	Sort(evs)
	if evs[0].Name != "parent" || evs[1].Name != "child" {
		t.Fatalf("order %s, %s", evs[0].Name, evs[1].Name)
	}
}

func TestArgOverflowDropsSilently(t *testing.T) {
	var ev Event
	for i := 0; i < maxArgs+5; i++ {
		ev.AddArg("k", float64(i))
	}
	if ev.NArgs != maxArgs {
		t.Fatalf("NArgs %d", ev.NArgs)
	}
}
