package flight

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"

	"ugache/internal/timeline"
)

// BundleReport summarizes one validated diagnostic bundle — the output of
// `ugache-trace -check-bundle` and the assertion surface of the flight-smoke
// target.
type BundleReport struct {
	// Dir is the bundle directory.
	Dir string
	// Manifest is the parsed manifest.
	Manifest Manifest
	// EventLines is the number of JSONL events parsed from flight.jsonl.
	EventLines int
	// EventsByKind counts parsed events per kind name.
	EventsByKind map[string]int
	// MetricCount is the number of samples in metrics.json.
	MetricCount int
	// TimelineEvents is the number of trace events in timeline.json.
	TimelineEvents int
	// ExemplarSpans is the size of the exemplar batch's resolved span tree
	// (the root "batch" span plus its children), 0 when the manifest has no
	// exemplar.
	ExemplarSpans int
	// DrawnSpans counts, per record kind the timeline draws (refresh, drift,
	// prefetch), the spans timeline.json holds of it.
	DrawnSpans map[string]int
}

// ValidateBundle checks a diagnostic bundle directory end to end: the
// manifest parses and every file it lists exists, non-empty but for a
// flight.jsonl of the 0 events the manifest promised; flight.jsonl
// parses line by line with the event count the manifest promised,
// metrics.json and timeline.json parse, profiles are non-empty, the
// timeline draws every control record flight.jsonl holds (at least as many
// refresh, drift-check and prefetch-window spans as refresh, drift and
// prefetch records), and — when the manifest
// carries an exemplar — the exemplar's (GPU, batch seq) resolves to a root
// "batch" span with a matching seq arg in the bundled timeline, along with
// the child spans nested under it.
func ValidateBundle(dir string) (*BundleReport, error) {
	rep := &BundleReport{Dir: dir, EventsByKind: make(map[string]int)}

	raw, err := os.ReadFile(filepath.Join(dir, manifestFile))
	if err != nil {
		return nil, fmt.Errorf("flight: bundle manifest: %w", err)
	}
	if err := json.Unmarshal(raw, &rep.Manifest); err != nil {
		return nil, fmt.Errorf("flight: bundle manifest does not parse: %w", err)
	}
	if rep.Manifest.Version != manifestVersion {
		return nil, fmt.Errorf("flight: bundle manifest version %d, want %d",
			rep.Manifest.Version, manifestVersion)
	}
	for _, name := range rep.Manifest.Files {
		st, err := os.Stat(filepath.Join(dir, name))
		if err != nil {
			return nil, fmt.Errorf("flight: bundle file %s: %w", name, err)
		}
		// flight.jsonl is held to the event count checkEvents reads against
		// the manifest: a bundle of a recorder that holds no record yet is
		// empty there and valid.
		if st.Size() == 0 && (name != EventsFile || rep.Manifest.FlightEvents != 0) {
			return nil, fmt.Errorf("flight: bundle file %s is empty", name)
		}
	}

	if slices.Contains(rep.Manifest.Files, EventsFile) {
		if err := rep.checkEvents(dir); err != nil {
			return nil, err
		}
	}
	if slices.Contains(rep.Manifest.Files, metricsFile) {
		var metrics map[string]float64
		raw, err := os.ReadFile(filepath.Join(dir, metricsFile))
		if err != nil {
			return nil, fmt.Errorf("flight: %s: %w", metricsFile, err)
		}
		if err := json.Unmarshal(raw, &metrics); err != nil {
			return nil, fmt.Errorf("flight: %s does not parse: %w", metricsFile, err)
		}
		rep.MetricCount = len(metrics)
		if rep.MetricCount != rep.Manifest.MetricSamples {
			return nil, fmt.Errorf("flight: %s holds %d samples, manifest says %d",
				metricsFile, rep.MetricCount, rep.Manifest.MetricSamples)
		}
	}
	if slices.Contains(rep.Manifest.Files, timelineFile) {
		if err := rep.checkTimeline(dir); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// checkEvents parses flight.jsonl line by line and cross-checks the count
// against the manifest.
func (rep *BundleReport) checkEvents(dir string) error {
	f, err := os.Open(filepath.Join(dir, EventsFile))
	if err != nil {
		return fmt.Errorf("flight: %s: %w", EventsFile, err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var ev struct {
			Kind      string `json:"kind"`
			UnixNanos int64  `json:"unix_nanos"`
		}
		if err := json.Unmarshal(line, &ev); err != nil {
			return fmt.Errorf("flight: %s line %d does not parse: %w",
				EventsFile, rep.EventLines+1, err)
		}
		if ev.Kind == "" || ev.Kind == "unknown" {
			return fmt.Errorf("flight: %s line %d has no kind", EventsFile, rep.EventLines+1)
		}
		rep.EventLines++
		rep.EventsByKind[ev.Kind]++
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("flight: %s: %w", EventsFile, err)
	}
	if rep.EventLines != rep.Manifest.FlightEvents {
		return fmt.Errorf("flight: %s holds %d events, manifest says %d",
			EventsFile, rep.EventLines, rep.Manifest.FlightEvents)
	}
	return nil
}

// checkTimeline validates timeline.json, holds its drawn spans to the control
// records checkEvents counted and, when the manifest carries an
// exemplar, resolves its (GPU, seq) to the matching batch span tree.
func (rep *BundleReport) checkTimeline(dir string) error {
	f, err := os.Open(filepath.Join(dir, timelineFile))
	if err != nil {
		return fmt.Errorf("flight: %s: %w", timelineFile, err)
	}
	defer f.Close()
	tl, err := timeline.Validate(f)
	if err != nil {
		return fmt.Errorf("flight: %s: %w", timelineFile, err)
	}
	rep.TimelineEvents = tl.Events

	rep.DrawnSpans = make(map[string]int, len(drawnAs))
	for kind, name := range drawnAs {
		for i := range tl.Trace {
			if tl.Trace[i].Name == name {
				rep.DrawnSpans[kind]++
			}
		}
		if rep.DrawnSpans[kind] < rep.EventsByKind[kind] {
			return fmt.Errorf("flight: %s draws %d %s spans of the %d %s records in %s",
				timelineFile, rep.DrawnSpans[kind], name, rep.EventsByKind[kind], kind, EventsFile)
		}
	}

	ex := rep.Manifest.Exemplar
	if ex == nil {
		return nil
	}
	// The root: a complete ("X") span named "batch" on the serve process,
	// on the exemplar's track, whose seq arg matches the exemplar.
	var root *timeline.TraceEvent
	for i := range tl.Trace {
		ev := &tl.Trace[i]
		if ev.Ph != "X" || ev.Name != "batch" ||
			ev.PID != timeline.ProcServe || ev.TID != int64(ex.Track) {
			continue
		}
		if seq, ok := ev.NumArg("seq"); ok && int64(seq) == ex.Seq {
			root = ev
			break
		}
	}
	if root == nil {
		return fmt.Errorf("flight: exemplar batch seq=%d track=%d has no matching span in %s",
			ex.Seq, ex.Track, timelineFile)
	}
	// Children: spans on the same track nested inside the root's interval.
	rep.ExemplarSpans = 1
	end := root.TS + root.Dur
	for i := range tl.Trace {
		ev := &tl.Trace[i]
		if ev == root || ev.Ph != "X" ||
			ev.PID != root.PID || ev.TID != root.TID {
			continue
		}
		if ev.TS >= root.TS && ev.TS+ev.Dur <= end {
			rep.ExemplarSpans++
		}
	}
	if rep.ExemplarSpans < 2 {
		return fmt.Errorf("flight: exemplar batch seq=%d track=%d resolved to a bare root span (no children) in %s",
			ex.Seq, ex.Track, timelineFile)
	}
	return nil
}
