package flight

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ugache/internal/telemetry"
	"ugache/internal/timeline"
)

// testTimeline builds a span recorder holding one batch span tree on GPU
// gpu with the given seq arg, plus a child span nested inside it.
func testTimeline(t *testing.T, gpu int32, seq int64) *timeline.Recorder {
	t.Helper()
	tl := timeline.NewRecorder(1, 0)
	sh := tl.Shard(0)
	root := timeline.Event{Name: "batch", Cat: "serve", Ph: timeline.PhSpan,
		PID: timeline.ProcServe, TID: gpu, Start: 0.010, Dur: 0.004}
	root.AddArg("seq", float64(seq))
	sh.Emit(&root)
	child := timeline.Event{Name: "extract", Cat: "serve", Ph: timeline.PhSpan,
		PID: timeline.ProcServe, TID: gpu, Start: 0.011, Dur: 0.002}
	sh.Emit(&child)
	return tl
}

func TestWriteBundleAndValidate(t *testing.T) {
	dir := t.TempDir()
	rec := NewRecorder(1, 16)
	e := batchEvent(3, 17, 0.025, 100)
	rec.Ring(0).Record(&e)
	q := Event{Kind: KindQueue, GPU: 3, UnixNanos: 101}
	q.V[QueueDepth] = 5
	rec.Ring(0).Record(&q)

	reg := telemetry.NewRegistry(1)
	reg.Counter("serve_requests_total", "x").Add(0, 42)

	cfg := BundleConfig{
		Dir:      dir,
		Recorder: rec,
		Registry: reg,
		Timeline: testTimeline(t, 3, 17),
	}
	violations := []SignalState{{Name: "admitted_p99_seconds", Short: 0.025, Long: 0.020, Threshold: 0.010, Breached: true}}
	path, err := WriteBundle(cfg, "slo:admitted_p99_seconds", violations, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(filepath.Base(path), "flight-") {
		t.Fatalf("bundle dir %q not timestamped", path)
	}
	for _, name := range []string{ManifestFile, EventsFile, MetricsFile, TimelineFile, GoroutinesFile, HeapFile} {
		st, err := os.Stat(filepath.Join(path, name))
		if err != nil || st.Size() == 0 {
			t.Fatalf("bundle file %s missing or empty (err=%v)", name, err)
		}
	}

	rep, err := ValidateBundle(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep.EventLines != 2 || rep.EventsByKind["batch"] != 1 || rep.EventsByKind["queue"] != 1 {
		t.Fatalf("events = %d %v", rep.EventLines, rep.EventsByKind)
	}
	if rep.MetricCount == 0 {
		t.Fatal("no metric samples in bundle")
	}
	if rep.ExemplarSpans != 2 {
		t.Fatalf("exemplar resolved to %d spans, want 2 (root + child)", rep.ExemplarSpans)
	}
	man := rep.Manifest
	if man.Reason != "slo:admitted_p99_seconds" || len(man.Violations) != 1 ||
		!man.Violations[0].Breached || man.Exemplar == nil || man.Exemplar.Seq != 17 {
		t.Fatalf("manifest = %+v", man)
	}
}

// TestBundleExemplarHasItsSpanTree: the slowest batch the flight rings hold
// has already lost its span tree (the span ring is the shorter-lived of the
// two), so the bundle names the slowest batch whose tree it does hold.
func TestBundleExemplarHasItsSpanTree(t *testing.T) {
	rec := NewRecorder(1, 16)
	for i, lat := range []float64{0.090, 0.010, 0.030, 0.020} {
		e := batchEvent(0, int64(i+1), lat, int64(100+i))
		rec.Ring(0).Record(&e)
	}
	// Two events a flush and room for five: seq 1 and seq 2's root are gone.
	tl := timeline.NewRecorder(1, 5)
	for seq := int64(1); seq <= 4; seq++ {
		root := timeline.Event{Name: "batch", Cat: "serve", Ph: timeline.PhSpan,
			PID: timeline.ProcServe, Start: float64(seq), Dur: 0.5}
		root.AddArg("seq", float64(seq))
		tl.Shard(0).Emit(&root)
		child := timeline.Event{Name: "extract", Cat: "serve", Ph: timeline.PhSpan,
			PID: timeline.ProcServe, Start: float64(seq) + 0.1, Dur: 0.2}
		tl.Shard(0).Emit(&child)
	}
	path, err := WriteBundle(BundleConfig{Dir: t.TempDir(), Recorder: rec, Timeline: tl, SkipProfiles: true},
		"test", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := ValidateBundle(path)
	if err != nil {
		t.Fatal(err)
	}
	if ex := rep.Manifest.Exemplar; ex == nil || ex.Seq != 3 || rep.ExemplarSpans != 2 {
		t.Fatalf("exemplar = %+v (%d spans), want seq 3 with its root and child", ex, rep.ExemplarSpans)
	}

	// No batch span left at all: no exemplar, rather than one that dangles.
	path, err = WriteBundle(BundleConfig{Dir: t.TempDir(), Recorder: rec, Timeline: timeline.NewRecorder(1, 4), SkipProfiles: true},
		"test", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep, err = ValidateBundle(path); err != nil || rep.Manifest.Exemplar != nil {
		t.Fatalf("exemplar without any span tree = %+v (err %v)", rep.Manifest.Exemplar, err)
	}
}

func TestWriteBundleSkipProfiles(t *testing.T) {
	dir := t.TempDir()
	rec := NewRecorder(1, 8)
	e := batchEvent(0, 1, 0.001, 1)
	rec.Ring(0).Record(&e)
	path, err := WriteBundle(BundleConfig{Dir: dir, Recorder: rec, SkipProfiles: true}, "test", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(path, HeapFile)); !os.IsNotExist(err) {
		t.Fatalf("heap profile written despite SkipProfiles (err=%v)", err)
	}
	rep, err := ValidateBundle(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep.EventLines != 1 {
		t.Fatalf("events = %d, want 1", rep.EventLines)
	}
}

func TestWriteBundleNoDir(t *testing.T) {
	if _, err := WriteBundle(BundleConfig{}, "x", nil, 0); err == nil {
		t.Fatal("WriteBundle without a directory succeeded")
	}
}

func TestValidateBundleRejectsBrokenExemplar(t *testing.T) {
	dir := t.TempDir()
	rec := NewRecorder(1, 8)
	e := batchEvent(0, 1, 0.001, 1)
	rec.Ring(0).Record(&e)
	path, err := WriteBundle(BundleConfig{
		Dir: dir, Recorder: rec, Timeline: testTimeline(t, 0, 1), SkipProfiles: true,
	}, "test", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Swap in a timeline that holds seq 99 only: the manifest's exemplar
	// (seq 1) now dangles, and resolution must fail.
	f, err := os.Create(filepath.Join(path, TimelineFile))
	if err != nil {
		t.Fatal(err)
	}
	if err := testTimeline(t, 0, 99).WriteTrace(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := ValidateBundle(path); err == nil || !strings.Contains(err.Error(), "no matching span") {
		t.Fatalf("ValidateBundle on a dangling exemplar: %v", err)
	}
}

func TestValidateBundleRejectsCorruptJSONL(t *testing.T) {
	dir := t.TempDir()
	rec := NewRecorder(1, 8)
	e := batchEvent(0, 1, 0.001, 1)
	rec.Ring(0).Record(&e)
	path, err := WriteBundle(BundleConfig{Dir: dir, Recorder: rec, SkipProfiles: true}, "test", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(path, EventsFile), []byte("not json\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ValidateBundle(path); err == nil {
		t.Fatal("ValidateBundle accepted corrupt JSONL")
	}
}

func TestValidateBundleMissingManifest(t *testing.T) {
	if _, err := ValidateBundle(t.TempDir()); err == nil {
		t.Fatal("ValidateBundle without a manifest succeeded")
	}
}

func TestManifestRoundTripsJSON(t *testing.T) {
	man := Manifest{Version: manifestVersion, Reason: "manual",
		Exemplar: &Exemplar{GPU: 1, Seq: 2, LatencySeconds: 0.5}}
	b, err := json.Marshal(&man)
	if err != nil {
		t.Fatal(err)
	}
	var back Manifest
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Exemplar == nil || back.Exemplar.Seq != 2 {
		t.Fatalf("round trip lost the exemplar: %+v", back)
	}
}
