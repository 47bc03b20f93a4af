// Package timeline is the time-axis half of the observability stack: a
// span-based tracing subsystem whose output is the Chrome trace-event JSON
// consumed by Perfetto and chrome://tracing. Where internal/telemetry
// answers "how many / how long on average", timeline answers "when, on
// which track": each coalesced serving batch becomes a span tree
// (queue-wait → coalesce → extract → gather → reply) with one link-flow span
// per source class it read from (§5's per-source core groups), and each
// cache refresh becomes the Fig. 17 solve/update-step timeline.
//
// The package is a renderer, not a store: a Recorder holds track names and
// sources (AddSource), each of which draws its events from records another
// layer already keeps — the flight recorder's batch and control rings. Export asks every source and sorts what they drew on demand — a
// slow-path, read-side operation; nothing is recorded on the hot path.
package timeline

import (
	"sort"
	"sync"
	"time"
)

// Conventional process IDs for the span taxonomy (DESIGN.md §6.6). Chrome
// trace events group tracks by pid; keeping the assignment fixed makes
// exported pids stable across runs and binaries.
const (
	// ProcServe holds the serving engine's span trees, one tid per worker:
	// its ring's index in the flight recorder, which is its GPU on a single
	// node.
	ProcServe = 1
	// ProcSim holds the extraction model's link-flow tracks, one tid per
	// (worker, source class) pair.
	ProcSim = 2
	// ProcControl holds slow-path control spans: cache refresh steps and
	// solver introspection.
	ProcControl = 3
	// ProcPrefetch holds the lookahead prefetch pipeline's window spans, one
	// tid per GPU prefetch worker. Keeping it a separate process group makes
	// the prefetch/extraction overlap directly visible against the ProcServe
	// batch trees in Perfetto.
	ProcPrefetch = 4
	// ProcOverload holds the admission-control track, one tid per worker:
	// queue-depth and cumulative-shed counter series sampled at every batch
	// formation, plus shed instants, so the onset of overload lines up
	// visually with the serve batch trees it throttles.
	ProcOverload = 5
)

// Conventional ProcControl thread IDs.
const (
	TIDRefresh = 0
	TIDSolver  = 1
	TIDDrift   = 2
)

// Ph is the Chrome trace-event phase of an event.
type Ph byte

const (
	// PhSpan is a complete event ("X"): a named interval with a duration.
	PhSpan Ph = 'X'
	// PhInstant is an instant event ("i"): a point in time.
	PhInstant Ph = 'i'
	// PhCounter is a counter sample ("C"): the event's first arg is the
	// series value at Start.
	PhCounter Ph = 'C'
)

// MaxArgs is the number of argument slots on an Event. Events keep args in
// a fixed array so an event is a plain struct.
const MaxArgs = 10

// Arg is one key/value argument of an event. Values are numeric — the
// span taxonomy only needs counts, bytes, and seconds, and numbers keep the
// struct flat.
type Arg struct {
	Key string
	Val float64
}

// Event is one trace event. The struct is flat (static strings, fixed-size
// arg array); Name and Cat are package literals, so drawing a record
// allocates nothing but the slice it appends to.
type Event struct {
	Name string
	Cat  string
	Ph   Ph
	PID  int32
	TID  int32
	// Start is seconds since the recorder's epoch (Recorder.Since); it must
	// be non-negative.
	Start float64
	// Dur is the span length in seconds (PhSpan only).
	Dur float64
	// Args holds the first NArgs argument slots.
	Args  [MaxArgs]Arg
	NArgs int32
}

// AddArg appends one argument, silently dropping it once the fixed slots
// are full (trace args are best-effort annotations, not data storage).
func (e *Event) AddArg(key string, v float64) {
	if int(e.NArgs) >= MaxArgs {
		return
	}
	e.Args[e.NArgs] = Arg{Key: key, Val: v}
	e.NArgs++
}

// Recorder is the track-name registry and the list of sources of one
// process's trace. It holds no events: every span is drawn at export from a
// record some other layer already keeps (the flight recorder's batch and
// control rings), so a trace reaches exactly as far back as
// those records. One recorder is shared by every instrumented layer; nil
// recorders disable tracing at each layer behind a single pointer check.
type Recorder struct {
	epoch time.Time

	mu      sync.Mutex
	procs   map[int32]string
	threads map[int64]string // pid<<32 | tid
	sources []func(dst []Event) []Event
}

// NewRecorder creates a recorder with no tracks and no sources; its epoch,
// the zero of every exported timestamp, is now.
func NewRecorder() *Recorder {
	return &Recorder{
		epoch:   time.Now(),
		procs:   make(map[int32]string),
		threads: make(map[int64]string),
	}
}

// AddSource registers a function Events (and so WriteTrace) calls to append
// the events it renders from its records — the serve batch trees and link
// flows, the control and prefetch tracks. src must be safe to call from any
// goroutine.
func (r *Recorder) AddSource(src func(dst []Event) []Event) {
	r.mu.Lock()
	r.sources = append(r.sources, src)
	r.mu.Unlock()
}

// Since converts an absolute time into seconds since the recorder's epoch.
// Times predating the epoch clamp to 0 so Start stays non-negative.
func (r *Recorder) Since(t time.Time) float64 {
	d := t.Sub(r.epoch).Seconds()
	if d < 0 {
		return 0
	}
	return d
}

// SetProcessName names a pid's track group in the exported trace.
func (r *Recorder) SetProcessName(pid int32, name string) {
	r.mu.Lock()
	r.procs[pid] = name
	r.mu.Unlock()
}

// SetThreadName names one (pid, tid) track in the exported trace.
func (r *Recorder) SetThreadName(pid, tid int32, name string) {
	r.mu.Lock()
	r.threads[int64(pid)<<32|int64(uint32(tid))] = name
	r.mu.Unlock()
}

// Events returns what every source draws, sorted by start time (ties
// broken by pid, tid, name, duration so the order — and therefore the
// exported JSON — is deterministic for identical drawn events).
func (r *Recorder) Events() []Event {
	var out []Event
	r.mu.Lock()
	sources := r.sources[:len(r.sources):len(r.sources)]
	r.mu.Unlock()
	for _, src := range sources {
		out = src(out)
	}
	sort.SliceStable(out, func(i, j int) bool {
		a, b := &out[i], &out[j]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		if a.PID != b.PID {
			return a.PID < b.PID
		}
		if a.TID != b.TID {
			return a.TID < b.TID
		}
		if a.Dur != b.Dur {
			return a.Dur > b.Dur // parents before children at equal start
		}
		return a.Name < b.Name
	})
	return out
}
