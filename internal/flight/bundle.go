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

// TimelineWriter is anything that can export a Chrome trace-event JSON
// document and say how far back one writer's window reaches — in practice
// *timeline.Recorder, accepted as an interface so wiring stays
// one-directional.
type TimelineWriter interface {
	WriteTrace(w io.Writer) error
	// OldestArg returns arg key of the oldest event named name that writer
	// shard still holds.
	OldestArg(shard int, name, key string) (float64, bool)
}

// BundleConfig describes what a diagnostic bundle captures. Any nil source
// simply omits its file; the manifest records what was written.
type BundleConfig struct {
	// Dir is the directory bundles are created under (one timestamped
	// subdirectory per bundle). Created if missing.
	Dir string
	// Recorder supplies flight.jsonl (the drained event rings).
	Recorder *Recorder
	// Registry supplies metrics.json (a full Samples snapshot).
	Registry *telemetry.Registry
	// Timeline supplies timeline.json (the current span-ring window, the
	// same Chrome trace-event document /debug/timeline serves).
	Timeline TimelineWriter
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

// Exemplar references the slowest coalesced batch in the watchdog window
// whose span tree the bundle holds: the (GPU, Seq) pair resolves to the
// batch's span tree in the bundled timeline window (the root "batch" span
// carries a matching seq arg), linking the flight events, the metrics and
// the timeline.
type Exemplar struct {
	GPU            int32   `json:"gpu"`
	Seq            int64   `json:"seq"`
	LatencySeconds float64 `json:"latency_seconds"`
	UnixNanos      int64   `json:"unix_nanos"`
}

// pickExemplar returns the slowest batch among events recorded in
// [since, until] — restricted, when tl is non-nil, to those at or past
// their worker's oldest surviving root span — or nil when there is none.
func pickExemplar(events []Event, since, until int64, tl TimelineWriter) *Exemplar {
	floors := map[int32]int64{} // per GPU; -1 = no batch span left
	var best *Event
	for i := range events {
		e := &events[i]
		if e.Kind != KindBatch || e.UnixNanos < since || e.UnixNanos > until {
			continue
		}
		if best != nil && e.V[BatchLatencySeconds] <= best.V[BatchLatencySeconds] {
			continue
		}
		if tl != nil {
			floor, seen := floors[e.GPU]
			if !seen {
				floor = -1
				if v, ok := tl.OldestArg(int(e.GPU), "batch", "seq"); ok {
					floor = int64(v)
				}
				floors[e.GPU] = floor
			}
			if floor < 0 || e.Seq < floor {
				continue
			}
		}
		best = e
	}
	if best == nil {
		return nil
	}
	return &Exemplar{GPU: best.GPU, Seq: best.Seq,
		LatencySeconds: best.V[BatchLatencySeconds], UnixNanos: best.UnixNanos}
}

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
// The manifest's exemplar is the slowest batch event at or after
// exemplarSince (unix nanos; 0 = everything the rings hold). The span rings
// are sized in events and a flush costs them many more than it costs a
// flight ring, so a batch can outlive its span tree; with a timeline in cfg
// the exemplar is therefore chosen among the batches whose tree the
// bundle's own timeline.json holds. That is exact, not best effort: the
// timeline is written first, each worker's oldest surviving root span is
// read after it (a tree still there now was there then), and a batch counts
// only if its event predates the write (the worker emits a batch's spans
// before its flight event).
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

	if cfg.Timeline != nil {
		if err := writeFile(TimelineFile, cfg.Timeline.WriteTrace); err != nil {
			return "", err
		}
	}
	if cfg.Recorder != nil {
		events := cfg.Recorder.Snapshot()
		man.FlightEvents = len(events)
		man.Exemplar = pickExemplar(events, exemplarSince, now.UnixNano(), cfg.Timeline)
		if err := writeFile(EventsFile, func(w io.Writer) error {
			var buf []byte
			for i := range events {
				buf = events[i].appendJSON(buf[:0])
				buf = append(buf, '\n')
				if _, err := w.Write(buf); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
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
