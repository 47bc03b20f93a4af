// Package timeline is the time-axis half of the observability stack: a
// span-based tracing subsystem whose output is the Chrome trace-event JSON
// consumed by Perfetto and chrome://tracing. Where internal/telemetry
// answers "how many / how long on average", timeline answers "when, on
// which track": each coalesced serving batch becomes a span tree
// (queue-wait → coalesce → extract → gather → reply), each fluid-sim phase
// becomes per-link utilization spans (the paper's Fig. 6 congestion curves),
// and each cache refresh becomes the Fig. 17 solve/update-step timeline.
//
// The recording discipline matches DESIGN.md §6.1: events are flat structs
// (static name/category strings, fixed arg slots, no maps, no pointers), a
// writer emits into a preallocated per-worker ring under a short per-shard
// mutex, and nothing on the emit path allocates. Only what no record
// carries is stored that way (fluid-sim phases, router dispatches); batch
// trees and the control tracks are sources (AddSource) rendered from the
// flight recorder's rings. Export merges and sorts the shards and sources
// on demand — a slow-path, read-side operation.
package timeline

import (
	"sort"
	"sync"
	"time"
)

// Conventional process IDs for the span taxonomy (DESIGN.md §6.3). Chrome
// trace events group tracks by pid; keeping the assignment fixed makes
// exported pids stable across runs and binaries.
const (
	// ProcServe holds the serving engine's span trees, one tid per GPU
	// worker.
	ProcServe = 1
	// ProcSim holds the fluid simulator's per-link utilization tracks, one
	// tid per topology link.
	ProcSim = 2
	// ProcControl holds slow-path control spans: cache refresh steps and
	// solver introspection.
	ProcControl = 3
	// ProcPrefetch holds the lookahead prefetch pipeline's window spans, one
	// tid per GPU prefetch worker. Keeping it a separate process group makes
	// the prefetch/extraction overlap directly visible against the ProcServe
	// batch trees in Perfetto.
	ProcPrefetch = 4
	// ProcOverload holds the admission-control track, one tid per GPU:
	// queue-depth and cumulative-shed counter series sampled at every batch
	// formation, plus shed instants, so the onset of overload lines up
	// visually with the serve batch trees it throttles.
	ProcOverload = 5
	// ProcRouter holds the cluster front end's tracks, one tid per node:
	// router queue-depth counter series plus scatter/gather dispatch spans,
	// so cross-node fan-out lines up visually against the per-node serve
	// trees it feeds.
	ProcRouter = 6
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
// a fixed array so recording is a plain struct copy.
const MaxArgs = 10

// Arg is one key/value argument of an event. Values are numeric — the
// span taxonomy only needs counts, bytes, and seconds, and numbers keep the
// struct flat.
type Arg struct {
	Key string
	Val float64
}

// Event is one trace event. The struct is flat (static strings, fixed-size
// arg array), so ring-buffer recording copies it without allocating. Name
// and Cat must be interned strings that outlive the recorder — package
// literals or strings precomputed at wiring time, never fmt output built on
// the hot path.
type Event struct {
	Name string
	Cat  string
	Ph   Ph
	PID  int32
	TID  int32
	// Start is seconds since the recorder's epoch for wall-clock events
	// (Recorder.Now / Recorder.Since), or any caller-defined time base for
	// simulated events; it must be non-negative.
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

// Shard is one writer's preallocated event ring. A shard is owned by one
// goroutine in steady state (serving worker g emits into Shard(g)); the
// short per-record mutex only exists so the cluster router's dispatchers and
// the exporter can touch the same shard safely.
type Shard struct {
	mu      sync.Mutex
	buf     []Event
	next    int
	n       int
	dropped int64
}

// Emit copies one event into the ring, overwriting the oldest once full.
func (s *Shard) Emit(e *Event) {
	s.mu.Lock()
	if s.n == len(s.buf) {
		s.dropped++
	}
	s.buf[s.next] = *e
	s.next = (s.next + 1) % len(s.buf)
	if s.n < len(s.buf) {
		s.n++
	}
	s.mu.Unlock()
}

// Len returns the number of events currently held.
func (s *Shard) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n
}

// Dropped returns how many events were overwritten before export.
func (s *Shard) Dropped() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
}

// snapshot appends the held events to dst, oldest first.
func (s *Shard) snapshot(dst []Event) []Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	start := (s.next - s.n + len(s.buf)) % len(s.buf)
	for i := 0; i < s.n; i++ {
		dst = append(dst, s.buf[(start+i)%len(s.buf)])
	}
	return dst
}

// Recorder owns the per-worker span rings, the rendered sources and the
// track-name registry of one process. One recorder is shared by every
// instrumented layer (serve, cluster, the flight recorder's drawn tracks);
// nil recorders disable tracing at each layer behind a single pointer check.
type Recorder struct {
	epoch  time.Time
	shards []Shard

	mu      sync.Mutex
	procs   map[int32]string
	threads map[int64]string // pid<<32 | tid
	sources []func(dst []Event) []Event
}

// DefaultDepth is the per-shard ring depth used when NewRecorder is given
// a non-positive depth: enough for several thousand batches' span trees
// without unbounded growth.
const DefaultDepth = 8192

// NewRecorder creates a recorder with the given number of writer shards
// (one per serving worker plus one for control-plane writers is typical;
// values < 1 are raised to 1) each holding the last depth events.
func NewRecorder(shards, depth int) *Recorder {
	if shards < 1 {
		shards = 1
	}
	if depth < 1 {
		depth = DefaultDepth
	}
	r := &Recorder{
		epoch:   time.Now(),
		shards:  make([]Shard, shards),
		procs:   make(map[int32]string),
		threads: make(map[int64]string),
	}
	for i := range r.shards {
		r.shards[i].buf = make([]Event, depth)
	}
	return r
}

// Shards returns the recorder's shard count.
func (r *Recorder) Shards() int { return len(r.shards) }

// Shard returns writer shard i (reduced modulo the shard count). Cache the
// pointer next to the worker's scratch; Shard itself is cheap but not free.
func (r *Recorder) Shard(i int) *Shard {
	if i < 0 {
		i = -i
	}
	return &r.shards[i%len(r.shards)]
}

// AddSource registers a function Events (and so WriteTrace) calls to append
// events that are rendered on demand instead of being stored in a shard —
// the serve batch trees and the control tracks, which are derived from the
// flight record rings at export time. src must be safe to call from any
// goroutine.
func (r *Recorder) AddSource(src func(dst []Event) []Event) {
	r.mu.Lock()
	r.sources = append(r.sources, src)
	r.mu.Unlock()
}

// Now returns seconds since the recorder's epoch — the Start value for a
// wall-clock event beginning now.
func (r *Recorder) Now() float64 { return time.Since(r.epoch).Seconds() }

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

// Dropped sums the events overwritten across all shards before export.
func (r *Recorder) Dropped() int64 {
	var total int64
	for i := range r.shards {
		total += r.shards[i].Dropped()
	}
	return total
}

// Events returns a merged snapshot of every shard and source, sorted by
// start time (ties broken by pid, tid, name, duration so the order — and
// therefore the exported JSON — is deterministic for identical recorded
// content).
func (r *Recorder) Events() []Event {
	var out []Event
	for i := range r.shards {
		out = r.shards[i].snapshot(out)
	}
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
