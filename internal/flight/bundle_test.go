package flight

import (
	"bytes"
	"encoding/json"
	"maps"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"ugache/internal/telemetry"
	"ugache/internal/timeline"
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
		{Kind: KindRefresh, GPU: -1, UnixNanos: now, V: [MaxPayload]float64{refreshSteps: 3, refreshSolveWallSeconds: 0.01}},
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
	path, err := writeBundle(cfg, "sigquit")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(filepath.Base(path), "flight-") {
		t.Fatalf("bundle dir %q not timestamped", path)
	}
	for _, name := range []string{manifestFile, EventsFile, metricsFile, timelineFile, goroutinesFile, heapFile} {
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
	if man.Reason != "sigquit" || man.Exemplar == nil || man.Exemplar.Seq != 17 || man.Exemplar.GPU != 3 {
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
	path, err := writeBundle(BundleConfig{Dir: t.TempDir(), Recorder: rec, SkipProfiles: true}, "test")
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
	path, err = writeBundle(BundleConfig{Dir: t.TempDir(), Recorder: empty, SkipProfiles: true}, "test")
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
	path, err := writeBundle(BundleConfig{Dir: t.TempDir(), Recorder: rec, SkipProfiles: true}, "test")
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
	path, err := writeBundle(BundleConfig{Dir: dir, Recorder: rec, SkipProfiles: true}, "test")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(path, heapFile)); !os.IsNotExist(err) {
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
	if _, err := writeBundle(BundleConfig{}, "x"); err == nil {
		t.Fatal("writeBundle without a directory succeeded")
	}
}

func TestValidateBundleRejectsBrokenExemplar(t *testing.T) {
	dir := t.TempDir()
	rec := NewRecorder(1, 8)
	b := stagedBatch(0, 0.001, 1)
	rec.Claim(1)[0].Record(&b)
	path, err := writeBundle(BundleConfig{
		Dir: dir, Recorder: rec, SkipProfiles: true,
	}, "test")
	if err != nil {
		t.Fatal(err)
	}
	// Swap in the timeline of a ring that has lapped seq 1: the manifest's
	// exemplar now dangles, and resolution must fail.
	f, err := os.Create(filepath.Join(path, timelineFile))
	if err != nil {
		t.Fatal(err)
	}
	lapped := NewRecorder(1, 8)
	skipTo(lapped.Claim(1)[0], 10)
	if _, err := WriteTrace(f, lapped); err != nil {
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
	path, err := writeBundle(BundleConfig{Dir: t.TempDir(), Recorder: rec, SkipProfiles: true}, "test")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ValidateBundle(path); err != nil {
		t.Fatal(err)
	}
	file := filepath.Join(path, timelineFile)
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
	path, err := writeBundle(BundleConfig{Dir: t.TempDir(), Recorder: rec, SkipProfiles: true}, "test")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ValidateBundle(path); err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(filepath.Join(path, timelineFile))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := WriteTrace(f, NewRecorder(1, 8)); err != nil {
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
	path, err := writeBundle(BundleConfig{Dir: dir, Recorder: rec, SkipProfiles: true}, "test")
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

// TestValidateBundleBeforeTheFirstBatch: a bundle of a recorder that holds
// no record yet (a SIGQUIT before the first batch) has an empty flight.jsonl
// and validates; the same file under a manifest promising events does not.
func TestValidateBundleBeforeTheFirstBatch(t *testing.T) {
	path, err := writeBundle(BundleConfig{Dir: t.TempDir(), Recorder: NewRecorder(2, 8)}, "sigquit")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := ValidateBundle(path)
	if err != nil {
		t.Fatalf("bundle of an empty recorder: %v", err)
	}
	if rep.EventLines != 0 || rep.Manifest.FlightEvents != 0 || rep.Manifest.Exemplar != nil {
		t.Fatalf("events %d, manifest %d, exemplar %+v; want none", rep.EventLines, rep.Manifest.FlightEvents, rep.Manifest.Exemplar)
	}

	manifest := filepath.Join(path, manifestFile)
	raw, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatal(err)
	}
	var man Manifest
	if err := json.Unmarshal(raw, &man); err != nil {
		t.Fatal(err)
	}
	man.FlightEvents = 3
	if raw, err = json.Marshal(man); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(manifest, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ValidateBundle(path); err == nil || !strings.Contains(err.Error(), EventsFile+" is empty") {
		t.Fatalf("empty %s under a manifest promising 3 events: %v, want it refused as empty", EventsFile, err)
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

// TestTriggerBundleBypassesCooldownAndArming: a manual bundle (SIGQUIT,
// POST /debug/flight/bundle) is written at once under the caller's reason,
// and a second trigger straight after the first writes its own bundle: no
// cooldown or arming gates it.
func TestTriggerBundleBypassesCooldownAndArming(t *testing.T) {
	rec := NewRecorder(1, 8)
	b := stagedBatch(0, 0.001, 1)
	rec.Claim(1)[0].Record(&b)
	cfg := BundleConfig{Dir: t.TempDir(), Recorder: rec, SkipProfiles: true}
	path, err := cfg.TriggerBundle("sigquit")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := ValidateBundle(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Manifest.Reason != "sigquit" || rep.EventLines != 1 {
		t.Fatalf("manual bundle = %+v with %d records", rep.Manifest, rep.EventLines)
	}
	again, err := cfg.TriggerBundle("http")
	if err != nil {
		t.Fatal(err)
	}
	if again == path {
		t.Fatalf("second trigger reused bundle %s", path)
	}
	if rep, err := ValidateBundle(again); err != nil || rep.Manifest.Reason != "http" {
		t.Fatalf("second manual bundle = %+v, %v", rep, err)
	}
}

// TestWatchdogExemplarTracksSlowestBatch (named for the SLO watchdog that
// once chose the exemplar): a manual bundle's exemplar is the slowest batch
// the rings still hold, however old, and resolves to its span tree.
func TestWatchdogExemplarTracksSlowestBatch(t *testing.T) {
	rec := NewRecorder(1, 16)
	ring := rec.Claim(1)[0]
	skipTo(ring, 7)
	for i, lat := range []float64{0.080, 0.001, 0.002} {
		b := stagedBatch(2, lat, 1+i)
		ring.Record(&b)
	}
	path, err := BundleConfig{Dir: t.TempDir(), Recorder: rec, SkipProfiles: true}.TriggerBundle("sigquit")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := ValidateBundle(path)
	if err != nil {
		t.Fatal(err)
	}
	if ex := rep.Manifest.Exemplar; ex == nil || ex.Seq != 7 || ex.GPU != 2 || rep.ExemplarSpans != 6 {
		t.Fatalf("exemplar = %+v (%d spans), want the oldest, slowest batch seq 7 on gpu 2 with its tree", ex, rep.ExemplarSpans)
	}
}

// TestWriteFlightStateJSON: /debug/flight's body is the flight JSONL, every
// held record one object a line, oldest first, and /debug/timeline's is the
// trace the same rings draw.
func TestWriteFlightStateJSON(t *testing.T) {
	rec := NewRecorder(1, 8)
	ring := rec.Claim(1)[0]
	skipTo(ring, 3)
	b := testBatch(1, 0.002, 5)
	ring.Record(&b)
	rec.RecordControl(&Event{Kind: KindDrift, GPU: -1, UnixNanos: 6})
	var buf bytes.Buffer
	if err := (BundleConfig{Recorder: rec}).WriteFlightState(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("flight state holds %d records, want 4:\n%s", len(lines), buf.String())
	}
	for i, want := range []struct {
		kind string
		seq  float64
	}{{"batch", 3}, {"drift", 0}} {
		var ev map[string]any
		if err := json.Unmarshal([]byte(lines[2+i]), &ev); err != nil {
			t.Fatalf("line %d does not parse: %v", 2+i, err)
		}
		if ev["kind"] != want.kind || ev["seq"].(float64) != want.seq {
			t.Fatalf("record %d = %v, want a %s of seq %v", 2+i, ev, want.kind, want.seq)
		}
	}
	buf.Reset()
	if err := (BundleConfig{Recorder: rec}).WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if rep, err := timeline.Validate(&buf); err != nil || rep.Names[timeline.ProcName{PID: timeline.ProcServe, Name: "batch"}] != 3 {
		t.Fatalf("trace of the same rings: %v, want its 3 batch trees", err)
	}

	// No recorder: no lines, and a trace of no events.
	buf.Reset()
	if err := (BundleConfig{}).WriteFlightState(&buf); err != nil || buf.Len() != 0 {
		t.Fatalf("flight state without a recorder = %q, %v", buf.String(), err)
	}
	if err := (BundleConfig{}).WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := timeline.Validate(&buf); err != nil {
		t.Fatalf("trace without a recorder: %v", err)
	}
}

// TestFlightDebugConcurrent reads /debug/flight's and /debug/timeline's
// bodies and writes a manual bundle while two workers record: the -race coverage of the on-demand
// surface over live rings.
func TestFlightDebugConcurrent(t *testing.T) {
	rec := NewRecorder(2, 32)
	dbg := BundleConfig{Dir: t.TempDir(), Recorder: rec, SkipProfiles: true}
	rings := rec.Claim(2)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w, ring := range rings {
		b := testBatch(w, 0.002, time.Now().UnixNano())
		ring.Record(&b) // the bundle holds records however the writers are scheduled
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				b := testBatch(w, 0.002, time.Now().UnixNano())
				ring.Record(&b)
			}
		}()
	}
	for i := 0; i < 20; i++ {
		var buf bytes.Buffer
		if err := dbg.WriteFlightState(&buf); err != nil {
			t.Fatal(err)
		}
		if err := dbg.WriteTrace(&buf); err != nil {
			t.Fatal(err)
		}
	}
	path, err := dbg.TriggerBundle("concurrent-test")
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatalf("manual bundle under load: %v", err)
	}
	if _, err := ValidateBundle(path); err != nil {
		t.Fatal(err)
	}
}
