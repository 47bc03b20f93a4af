// Package timeline is the Chrome trace-event format of the observability
// stack and its validator: the JSON Perfetto and chrome://tracing load. Where
// internal/telemetry answers "how many / how long on average", a trace
// answers "when, on which track". The package holds no events and draws
// none: the flight recorder draws every span from its batch and control
// rings (flight.Draw) — each coalesced serving batch as a span tree
// (queue-wait → coalesce → extract → gather → reply) with one link-flow span
// per source class it read from (§5's per-source core groups), each cache
// refresh as the Fig. 17 solve/update-step timeline — and Write renders what
// it drew. Validate checks a written trace.
package timeline

import "sort"

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

// maxArgs is the number of argument slots on an Event. Events keep args in
// a fixed array so an event is a plain struct.
const maxArgs = 10

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
	// Start is seconds since the trace's zero (the drawing flight
	// recorder's creation); it must be non-negative.
	Start float64
	// Dur is the span length in seconds (PhSpan only).
	Dur float64
	// Args holds the first NArgs argument slots.
	Args  [maxArgs]Arg
	NArgs int32
}

// AddArg appends one argument, silently dropping it once the fixed slots
// are full (trace args are best-effort annotations, not data storage).
func (e *Event) AddArg(key string, v float64) {
	if int(e.NArgs) >= maxArgs {
		return
	}
	e.Args[e.NArgs] = Arg{Key: key, Val: v}
	e.NArgs++
}

// Tracks names a trace's process groups (Procs, by pid) and the tracks in
// them (Threads, by pid and tid).
type Tracks struct {
	Procs   map[int32]string
	Threads map[[2]int32]string
}

// Sort orders events by start time, ties broken by pid, tid, longer
// duration first (parents before children at equal start) and name, so the
// written JSON is deterministic for identical events.
func Sort(events []Event) {
	sort.SliceStable(events, func(i, j int) bool {
		a, b := &events[i], &events[j]
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
			return a.Dur > b.Dur
		}
		return a.Name < b.Name
	})
}
