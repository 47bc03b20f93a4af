package flight

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"ugache/internal/telemetry"
)

// BundleConfig describes what a diagnostic bundle captures. Any nil source
// simply omits its file; the manifest records what was written.
type BundleConfig struct {
	// Dir is the directory bundles are created under (one timestamped
	// subdirectory per bundle). Created if missing.
	Dir string
	// Recorder supplies flight.jsonl (the drained event rings) and
	// timeline.json (the trace drawn from the rings as they are now, the
	// same Chrome trace-event document /debug/timeline serves).
	Recorder *Recorder
	// Registry supplies metrics.json (a full Samples snapshot).
	Registry *telemetry.Registry
	// SkipProfiles omits the goroutine dump and heap profile — tests use it
	// to keep bundle writing fast; production bundles always want both.
	SkipProfiles bool
}

// Bundle file names. The manifest is written last so a manifest's presence
// means the bundle is complete.
const (
	ManifestFile   = "manifest.json"
	EventsFile     = "flight.jsonl"
	MetricsFile    = "metrics.json"
	TimelineFile   = "timeline.json"
	GoroutinesFile = "goroutines.txt"
	HeapFile       = "heap.pprof"
)

// Manifest indexes one diagnostic bundle.
type Manifest struct {
	Version          int           `json:"version"`
	CreatedUnixNanos int64         `json:"created_unix_nanos"`
	Created          string        `json:"created"`
	Reason           string        `json:"reason"`
	Violations       []SignalState `json:"violations,omitempty"`
	Exemplar         *Exemplar     `json:"exemplar,omitempty"`
	Files            []string      `json:"files"`
	FlightEvents     int           `json:"flight_events"`
	MetricSamples    int           `json:"metric_samples"`
}

// manifestVersion is bumped when the bundle layout changes incompatibly.
const manifestVersion = 1

// WriteBundle drains cfg's sources into a new timestamped directory under
// cfg.Dir and returns the bundle path. The manifest is written last, so
// readers may treat its presence as a completeness marker.
//
// The manifest's exemplar is the slowest batch that completed at or after
// exemplarSince (unix nanos; 0 = everything the rings hold). A batch's span
// tree is rendered from its ring slot when the timeline is exported, so the
// exemplar is chosen among the batches recorded before the timeline write
// and still held after it: its tree is in the bundle's own timeline.json.
// For the same reason flight.jsonl holds the control records recorded
// before the timeline write, each of which timeline.json draws.
func WriteBundle(cfg BundleConfig, reason string, violations []SignalState, exemplarSince int64) (string, error) {
	if cfg.Dir == "" {
		return "", fmt.Errorf("flight: bundle needs a directory")
	}
	now := time.Now()
	dir := filepath.Join(cfg.Dir, "flight-"+now.UTC().Format("20060102-150405.000000000"))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("flight: %w", err)
	}
	man := Manifest{
		Version:          manifestVersion,
		CreatedUnixNanos: now.UnixNano(),
		Created:          now.UTC().Format(time.RFC3339Nano),
		Reason:           reason,
		Violations:       violations,
	}
	writeFile := func(name string, fill func(io.Writer) error) error {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			return fmt.Errorf("flight: %s: %w", name, err)
		}
		bw := bufio.NewWriter(f)
		if err := fill(bw); err != nil {
			f.Close()
			return fmt.Errorf("flight: %s: %w", name, err)
		}
		if err := bw.Flush(); err != nil {
			f.Close()
			return fmt.Errorf("flight: %s: %w", name, err)
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("flight: %s: %w", name, err)
		}
		man.Files = append(man.Files, name)
		return nil
	}

	if cfg.Recorder != nil {
		mark := cfg.Recorder.mark()
		if err := writeFile(TimelineFile, cfg.Recorder.WriteTrace); err != nil {
			return "", err
		}
		man.Exemplar = cfg.Recorder.exemplar(exemplarSince, mark)
		lines := cfg.Recorder.lines(0, mark)
		man.FlightEvents = len(lines)
		if err := writeFile(EventsFile, func(w io.Writer) error { return writeLines(w, lines) }); err != nil {
			return "", err
		}
	}
	if cfg.Registry != nil {
		samples := cfg.Registry.Samples()
		man.MetricSamples = len(samples)
		if err := writeFile(MetricsFile, func(w io.Writer) error {
			out := make(map[string]float64, len(samples))
			for _, s := range samples {
				out[s.Name] = s.Value
			}
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			return enc.Encode(out)
		}); err != nil {
			return "", err
		}
	}
	if !cfg.SkipProfiles {
		if err := writeFile(GoroutinesFile, func(w io.Writer) error {
			return pprof.Lookup("goroutine").WriteTo(w, 1)
		}); err != nil {
			return "", err
		}
		if err := writeFile(HeapFile, func(w io.Writer) error {
			runtime.GC() // up-to-date live-heap statistics
			return pprof.WriteHeapProfile(w)
		}); err != nil {
			return "", err
		}
	}
	if err := writeFile(ManifestFile, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(&man)
	}); err != nil {
		return "", err
	}
	return dir, nil
}
