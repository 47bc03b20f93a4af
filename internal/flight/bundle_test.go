package flight

import (
	"encoding/json"
	"maps"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ugache/internal/telemetry"
)

// stagedBatch is a functional-mode batch on gpu completing in seconds from
// now (past any span recorder's epoch) whose five stages share lat equally.
func stagedBatch(gpu int, lat float64, in int) Batch {
	return Batch{GPU: gpu, UnixNanos: time.Now().Add(time.Duration(in) * time.Second).UnixNano(), Requests: 3,
		QueueWaitSeconds: lat / 5, CoalesceSeconds: lat / 5, ExtractSeconds: lat / 5,
		GatherSeconds: lat / 5, ReplySeconds: lat / 5}
}

func TestWriteBundleAndValidate(t *testing.T) {
	dir := t.TempDir()
	rec := NewRecorder(1, 32)
	ring := rec.Claim(1)[0]
	skipTo(ring, 17)
	b := stagedBatch(3, 0.025, 1)
	ring.Record(&b)
	now := time.Now().UnixNano()
	for _, e := range []Event{
		{Kind: KindPartial, GPU: 3, UnixNanos: 101, V: [MaxPayload]float64{PartialMissingKeys: 5}},
		{Kind: KindRefresh, GPU: -1, UnixNanos: now, V: [MaxPayload]float64{RefreshSteps: 3, RefreshSolveWallSeconds: 0.01}},
		{Kind: KindDrift, GPU: -1, UnixNanos: now},
		{Kind: KindPrefetch, GPU: 2, UnixNanos: now},
		{Kind: KindPrefetch, GPU: 3, UnixNanos: now},
	} {
		rec.RecordControl(&e)
	}

	reg := telemetry.NewRegistry(1)
	reg.Counter("serve_requests_total", "x").Add(0, 42)

	cfg := BundleConfig{
		Dir:      dir,
		Recorder: rec,
		Registry: reg,
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
	if rep.EventLines != 22 || rep.EventsByKind["batch"] != 17 || rep.EventsByKind["partial"] != 1 {
		t.Fatalf("events = %d %v", rep.EventLines, rep.EventsByKind)
	}
	if want := map[string]int{"refresh": 1, "drift": 1, "prefetch": 2}; !maps.Equal(rep.DrawnSpans, want) {
		t.Fatalf("drawn spans %v, want one per record: %v", rep.DrawnSpans, want)
	}
	if rep.MetricCount == 0 {
		t.Fatal("no metric samples in bundle")
	}
	if rep.ExemplarSpans != 6 {
		t.Fatalf("exemplar resolved to %d spans, want 6 (root + five stages)", rep.ExemplarSpans)
	}
	man := rep.Manifest
	if man.Reason != "slo:admitted_p99_seconds" || len(man.Violations) != 1 ||
		!man.Violations[0].Breached || man.Exemplar == nil || man.Exemplar.Seq != 17 || man.Exemplar.GPU != 3 {
		t.Fatalf("manifest = %+v", man)
	}
}

// TestBundleExemplarHasItsSpanTree: the exemplar and its span tree come out
// of the same ring slot, so the slowest batch the ring still holds resolves
// however much has churned through it — and a slower one the ring has lapped
// is not picked.
func TestBundleExemplarHasItsSpanTree(t *testing.T) {
	rec := NewRecorder(1, 8)
	ring := rec.Claim(1)[0]
	for i := 0; i < 40; i++ {
		lat := 0.010 + 0.0001*float64(i%7)
		switch i {
		case 0:
			lat = 0.500 // lapped by the 39 after it
		case 35:
			lat = 0.090
		}
		b := stagedBatch(0, lat, 1+i)
		ring.Record(&b)
	}
	path, err := WriteBundle(BundleConfig{Dir: t.TempDir(), Recorder: rec, SkipProfiles: true},
		"test", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := ValidateBundle(path)
	if err != nil {
		t.Fatal(err)
	}
	if ex := rep.Manifest.Exemplar; ex == nil || ex.Seq != 36 || ex.LatencySeconds < 0.0899 || rep.ExemplarSpans != 6 {
		t.Fatalf("exemplar = %+v (%d spans), want seq 36 with its root and five stages", ex, rep.ExemplarSpans)
	}

	// No batch at all: no exemplar, rather than one that dangles.
	empty := NewRecorder(1, 16)
	empty.RecordControl(&Event{Kind: KindRefresh, GPU: -1, UnixNanos: 1})
	path, err = WriteBundle(BundleConfig{Dir: t.TempDir(), Recorder: empty, SkipProfiles: true},
		"test", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep, err = ValidateBundle(path); err != nil {
		t.Fatal(err)
	}
	if rep.Manifest.Exemplar != nil {
		t.Fatalf("exemplar without any batch = %+v", rep.Manifest.Exemplar)
	}
}

// TestExemplarResolvesOnItsRing: servers sharing a recorder number their
// batches per ring, so two nodes' GPU 0 workers both write a seq 1 batch.
// Each ring draws on its own track and the exemplar names that track, so it
// resolves to its own batch's tree, not to one with the other's spans nested
// in it.
func TestExemplarResolvesOnItsRing(t *testing.T) {
	rec := NewRecorder(2, 8)
	rings := rec.Claim(2)
	fast, slow := rings[0], rings[1]
	a, b := stagedBatch(0, 0.010, 1), stagedBatch(0, 0.050, 1)
	fast.Record(&a)
	slow.Record(&b)
	path, err := WriteBundle(BundleConfig{Dir: t.TempDir(), Recorder: rec, SkipProfiles: true},
		"test", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := ValidateBundle(path)
	if err != nil {
		t.Fatal(err)
	}
	if ex := rep.Manifest.Exemplar; ex == nil || ex.Track != 1 || ex.GPU != 0 || ex.Seq != 1 || rep.ExemplarSpans != 6 {
		t.Fatalf("exemplar = %+v (%d spans), want the slow ring's seq 1 on track 1 with its root and five stages", ex, rep.ExemplarSpans)
	}
}

func TestWriteBundleSkipProfiles(t *testing.T) {
	dir := t.TempDir()
	rec := NewRecorder(1, 8)
	b := stagedBatch(0, 0.001, 1)
	rec.Claim(1)[0].Record(&b)
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
	b := stagedBatch(0, 0.001, 1)
	rec.Claim(1)[0].Record(&b)
	path, err := WriteBundle(BundleConfig{
		Dir: dir, Recorder: rec, SkipProfiles: true,
	}, "test", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Swap in the timeline of a ring that has lapped seq 1: the manifest's
	// exemplar now dangles, and resolution must fail.
	f, err := os.Create(filepath.Join(path, TimelineFile))
	if err != nil {
		t.Fatal(err)
	}
	lapped := NewRecorder(1, 8)
	skipTo(lapped.Claim(1)[0], 10)
	if err := lapped.WriteTrace(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := ValidateBundle(path); err == nil || !strings.Contains(err.Error(), "no matching span") {
		t.Fatalf("ValidateBundle on a dangling exemplar: %v", err)
	}
}

// TestValidateBundleRejectsNegativeSpan: timeline.json goes through
// timeline.Validate, so one span with a negative ts fails the bundle.
func TestValidateBundleRejectsNegativeSpan(t *testing.T) {
	rec := NewRecorder(1, 8)
	b := stagedBatch(0, 0.001, 1)
	rec.Claim(1)[0].Record(&b)
	path, err := WriteBundle(BundleConfig{Dir: t.TempDir(), Recorder: rec, SkipProfiles: true},
		"test", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ValidateBundle(path); err != nil {
		t.Fatal(err)
	}
	file := filepath.Join(path, TimelineFile)
	raw, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	broken := false
	for _, ev := range doc.TraceEvents {
		if ev["ph"] == "X" && ev["name"] == "reply" {
			ev["ts"], broken = -1.0, true
			break
		}
	}
	if !broken {
		t.Fatal("the timeline draws no reply span")
	}
	if raw, err = json.Marshal(doc); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(file, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ValidateBundle(path); err == nil || !strings.Contains(err.Error(), "negative ts") {
		t.Fatalf("ValidateBundle on a negative span: %v", err)
	}
}

// TestValidateBundleRejectsUndrawnControl: a bundle whose timeline does not
// draw the control records flight.jsonl holds fails validation.
func TestValidateBundleRejectsUndrawnControl(t *testing.T) {
	rec := NewRecorder(1, 8)
	rec.RecordControl(&Event{Kind: KindDrift, GPU: -1, UnixNanos: time.Now().UnixNano()})
	path, err := WriteBundle(BundleConfig{Dir: t.TempDir(), Recorder: rec, SkipProfiles: true},
		"test", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ValidateBundle(path); err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(filepath.Join(path, TimelineFile))
	if err != nil {
		t.Fatal(err)
	}
	if err := NewRecorder(1, 8).WriteTrace(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := ValidateBundle(path); err == nil || !strings.Contains(err.Error(), "0 drift-check spans of the 1 drift records") {
		t.Fatalf("ValidateBundle on an undrawn drift check: %v", err)
	}
}

func TestValidateBundleRejectsCorruptJSONL(t *testing.T) {
	dir := t.TempDir()
	rec := NewRecorder(1, 8)
	b := stagedBatch(0, 0.001, 1)
	rec.Claim(1)[0].Record(&b)
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
