package flight

import (
	"testing"
	"time"

	"ugache/internal/timeline"
)

// drawnAt returns the start of every drawn event named name, in draw order.
func drawnAt(events []timeline.Event, name string) []float64 {
	var at []float64
	for _, ev := range events {
		if ev.Name == name {
			at = append(at, ev.Start)
		}
	}
	return at
}

// TestDrawClampsToCreation: a trace's zero is its recorder's creation, and a
// record that completed before it draws at 0, so no timestamp is negative.
func TestDrawClampsToCreation(t *testing.T) {
	rec := NewRecorder(1, 8)
	ring := rec.Claim(1)[0]
	early := testBatch(0, 0.002, rec.created-int64(time.Hour))
	ring.Record(&early)
	late := testBatch(0, 0.25, rec.created+int64(time.Second))
	ring.Record(&late)
	rec.RecordControl(&Event{Kind: KindDrift, GPU: -1, UnixNanos: rec.created - int64(time.Hour)})

	_, events := Draw(rec)
	if at := drawnAt(events, "batch"); len(at) != 2 || at[0] != 0 || at[1] != 0.75 {
		t.Fatalf("batches drawn at %v, want [0 0.75]", at)
	}
	if at := drawnAt(events, "drift-check"); len(at) != 1 || at[0] != 0 {
		t.Fatalf("drift check drawn at %v, want [0]", at)
	}
}

// TestDrawTimesFromTheEarliestRecorder: recorders drawn together share one
// time axis, whose zero is the earliest one's creation — ugache-bench
// -timeline draws every run's recorder in one trace.
func TestDrawTimesFromTheEarliestRecorder(t *testing.T) {
	first, second := NewRecorder(1, 8), NewRecorder(1, 8)
	second.created = first.created + int64(time.Second)
	for _, r := range []*Recorder{first, second} {
		r.RecordControl(&Event{Kind: KindDrift, GPU: -1, UnixNanos: first.created + int64(2*time.Second)})
	}
	_, events := Draw(second, first)
	if at := drawnAt(events, "drift-check"); len(at) != 2 || at[0] != 2 || at[1] != 2 {
		t.Fatalf("drift checks drawn at %v, want both at 2 s", at)
	}
	if _, events = Draw(second); drawnAt(events, "drift-check")[0] != 1 {
		t.Fatalf("alone, the later recorder draws from its own creation: %v", drawnAt(events, "drift-check"))
	}
}

// TestClaimNamesServersAsNodes: Claim hands a server all its rings or none,
// and the trace names a second server's tracks after its node, so two
// servers sharing one recorder draw apart.
func TestClaimNamesServersAsNodes(t *testing.T) {
	rec := NewRecorder(4, 8)
	if rec.Claim(5) != nil || rec.Claim(0) != nil {
		t.Fatal("Claim handed out more rings than the recorder has, or none")
	}
	node0, node1 := rec.Claim(2), rec.Claim(2)
	if len(node0) != 2 || len(node1) != 2 || rec.Claim(1) != nil {
		t.Fatal("a refused Claim took rings, or the recorder handed out a ring twice")
	}
	rec.RecordControl(&Event{Kind: KindPrefetch, GPU: 1, UnixNanos: time.Now().UnixNano()})

	tracks, _ := Draw(rec)
	for track, want := range map[[2]int32]string{
		{timeline.ProcServe, 0}:     "gpu 0 worker",
		{timeline.ProcServe, 1}:     "gpu 1 worker",
		{timeline.ProcServe, 2}:     "node 1 gpu 0 worker",
		{timeline.ProcServe, 3}:     "node 1 gpu 1 worker",
		{timeline.ProcOverload, 0}:  "gpu 0 admission",
		{timeline.ProcOverload, 3}:  "node 1 gpu 1 admission",
		{timeline.ProcSim, 3}:       "gpu 0 network",
		{timeline.ProcSim, 2*4 + 1}: "node 1 gpu 0 remote",
		{timeline.ProcControl, 0}:   "cache refresh",
		{timeline.ProcControl, 1}:   "policy solver",
		{timeline.ProcControl, 2}:   "drift detector",
		{timeline.ProcPrefetch, 1}:  "gpu 1 prefetch",
		{timeline.ProcPrefetch, 0}:  "", // no window staged
	} {
		if got := tracks.Threads[track]; got != want {
			t.Errorf("track %v named %q, want %q", track, got, want)
		}
	}

	// A recorder no server claimed from names the control tracks alone.
	tracks, _ = Draw(NewRecorder(1, 8))
	if _, ok := tracks.Procs[timeline.ProcServe]; ok || tracks.Procs[timeline.ProcControl] != "control" {
		t.Fatalf("unclaimed recorder names processes %v", tracks.Procs)
	}
}
