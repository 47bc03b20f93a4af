// Package serve is the concurrent serving engine on top of core.System: a
// per-GPU worker pulls lookup requests off a queue and coalesces whatever
// backlog it finds, up to one iteration-sized extraction batch, so under
// load many small client requests ride one locate/extract pass — the
// batched-extraction regime the paper's model assumes (§3.2, §6.2) — while
// a request that finds the worker idle leaves at once.
//
// The engine works in both modes of the underlying system: in functional
// mode each request gets its embedding rows back; in timing-only mode it
// gets just the simulated extraction cost of the coalesced batch it rode
// in. Requests never block each other across GPUs, and the system under-
// neath may Refresh concurrently — every coalesced batch resolves against
// one placement snapshot.
//
// Every server carries a telemetry registry (request-latency and queue-wait
// histograms, batch fill-reason counters, coalescing totals) and a
// per-batch trace ring; both update through lock-free per-worker shards and
// preallocated records, so instrumentation keeps the flush path at its
// BENCH_hotpath.json allocation budget (DESIGN.md §6.2).
package serve

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ugache/internal/cache"
	"ugache/internal/core"
	"ugache/internal/extract"
	"ugache/internal/flight"
	"ugache/internal/hashtable"
	"ugache/internal/sim"
	"ugache/internal/telemetry"
	"ugache/internal/timeline"
)

// ErrClosed is returned by requests that reach a closed (or closing)
// server.
var ErrClosed = errors.New("serve: server closed")

// ErrBadKey is returned (wrapped, with the offending key) to the caller of a
// request that names a key outside the table. The request is refused before
// admission, so it never shares a batch with — and can never fail — anyone
// else's.
var ErrBadKey = errors.New("serve: key out of range")

// ErrOverload is returned by requests the admission controller sheds: the
// destination GPU's queue was full and either the server runs fast-fail
// admission (Config.AdmitWait == 0) or the bounded wait expired without
// space freeing up. Overload is a first-class serving state, not a fault —
// callers are expected to retry with backoff, degrade, or drop, and the
// shed is counted in serve_rejected_total.
var ErrOverload = errors.New("serve: overloaded, request shed")

// Config tunes the coalescer.
type Config struct {
	// MaxBatchKeys caps a coalesced batch: the worker stops taking queued
	// requests once this many (non-deduplicated) keys are in hand (default
	// 8192, one paper-sized iteration). A batch never waits to reach the cap
	// — it leaves as soon as the queue is empty.
	MaxBatchKeys int
	// QueueDepth bounds the per-GPU inference admission ring (default 256,
	// rounded up to a power of two). A full ring sheds instead of blocking:
	// see AdmitWait.
	QueueDepth int
	// BackgroundQueueDepth bounds the per-GPU background (ClassBackground)
	// ring (default QueueDepth/4, min 4). Background work rides a smaller
	// ring so it sheds before inference traffic as pressure builds.
	BackgroundQueueDepth int
	// AdmitWait bounds how long an admission may wait for queue space before
	// shedding with ErrOverload. 0 (the default) is fast-fail admission: a
	// full ring sheds immediately. A positive value lets Handle park — off
	// the worker's critical path and outside any lock — until space frees or
	// the deadline expires, trading a little latency for fewer sheds near
	// the saturation knee.
	AdmitWait time.Duration

	// Lookahead enables the prefetch pipeline: L is how many batches ahead
	// clients announce upcoming keys via Prefetch. Here and in StaleBatches a
	// batch is MaxBatchKeys requested keys of traffic on the GPU — one
	// paper-sized iteration — however many flushes carried them: a full
	// batch at saturation, hundreds of single-request flushes below the knee.
	// Announced windows wait for the prefetch worker in a per-GPU queue as
	// deep as the inference ring (one window per request that can be
	// pending; 2L if that is more) and are dropped beyond it.
	// 0 (the default) disables prefetching entirely — no staging arena, no
	// workers, and a flush path identical to a non-prefetching server.
	Lookahead int
	// StaleBatches is the bounded-staleness window S: after a Refresh swaps
	// the placement, staged rows committed under the outgoing version may
	// still be served until S batches of keys (S x MaxBatchKeys, see
	// Lookahead) have been served since their commit, instead of being
	// discarded. 0 means staged rows die with their snapshot.
	StaleBatches int
	// StagingEntries sizes each GPU's staging arena in rows (default
	// Lookahead x MaxBatchKeys: the announced traffic, if none of it were
	// cached).
	StagingEntries int

	// Telemetry receives the engine's metrics. Nil creates a private
	// registry (sharded per GPU), so Metrics and Stats always work; pass
	// the same registry to core.Config.Telemetry to get the extraction and
	// refresh metrics alongside.
	Telemetry *telemetry.Registry
	// TraceDepth sizes the per-batch trace ring (default 256; negative
	// disables tracing entirely).
	TraceDepth int
	// TraceEvery records every Nth batch per worker into the trace ring
	// (default 1: every batch — recording is allocation-free, so the
	// default sampling keeps the hot path at its benchmarked budget).
	TraceEvery int
	// Sampler, when non-nil, observes every coalesced batch's unique keys
	// for §7.2 hotness re-estimation. Worker g feeds the sampler's shard g,
	// so one sampler may serve all workers concurrently.
	Sampler *cache.HotnessSampler
	// Controller, when non-nil, is notified after every flushed batch (after
	// the sampler observation) so a periodic- or drift-mode refresh
	// controller can close the §7.2 loop against the live stream. Use an
	// Async controller here — a synchronous one would run solves inline on
	// the flush path.
	Controller *core.Controller
	// Timeline, when non-nil, records every flushed batch as a span tree on
	// the serve track (queue-wait → coalesce → extract → gather → reply)
	// and, for TraceEvery-sampled batches, the extraction's fluid-sim phases
	// as per-link utilization spans (DESIGN.md §6.3). Worker g emits into
	// the recorder's shard g. Nil disables tracing behind one pointer check.
	Timeline *timeline.Recorder
	// Flight, when non-nil, receives the always-on flight-recorder events
	// (DESIGN.md §6.8): every flushed batch (latency / tier split / prefetch
	// hits), queue-depth samples and shed deltas at batch formation, and
	// staged prefetch windows. Worker g records into the recorder's ring g;
	// recording is a fixed set of atomic stores, so the flush path stays at
	// its BENCH_hotpath.json allocation budget with flight enabled.
	Flight *flight.Recorder
}

func (c Config) normalize() Config {
	if c.MaxBatchKeys <= 0 {
		c.MaxBatchKeys = 8192
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.BackgroundQueueDepth <= 0 {
		c.BackgroundQueueDepth = c.QueueDepth / 4
		if c.BackgroundQueueDepth < 4 {
			c.BackgroundQueueDepth = 4
		}
	}
	if c.AdmitWait < 0 {
		c.AdmitWait = 0
	}
	if c.TraceDepth == 0 {
		c.TraceDepth = 256
	}
	if c.TraceEvery <= 0 {
		c.TraceEvery = 1
	}
	if c.Lookahead < 0 {
		c.Lookahead = 0
	}
	if c.StaleBatches < 0 {
		c.StaleBatches = 0
	}
	if c.Lookahead > 0 && c.StagingEntries <= 0 {
		c.StagingEntries = c.Lookahead * c.MaxBatchKeys
	}
	return c
}

// Result is what one request gets back.
type Result struct {
	// Rows holds len(keys) rows of EntryBytes in functional mode; nil in
	// timing-only mode.
	//
	// Ownership: Rows is a caller-owned copy. The server carves one
	// batch-sized allocation into per-request sub-slices at flush time and
	// never touches it again, so the caller may retain or mutate Rows
	// indefinitely. (Requests from the same coalesced batch share that
	// backing array; mutating past len(Rows) via append is the only way to
	// observe a neighbour, and slices handed out are full-capacity-clipped
	// to forbid exactly that.)
	Rows []byte
	// SimSeconds is the modelled extraction time of the coalesced batch
	// this request rode in (shared by every request in the batch).
	SimSeconds float64
	// BatchKeys is the unique-key size of that coalesced batch.
	BatchKeys int
	// Err is set when the lookup failed (bad key, closed server, ...).
	Err error
}

// Stats are cumulative serving counters, read from the telemetry registry.
type Stats struct {
	Requests      int64   // requests completed
	Batches       int64   // coalesced batches flushed
	RequestedKeys int64   // keys requested (before dedup)
	UniqueKeys    int64   // unique keys actually extracted
	SimSeconds    float64 // total simulated extraction time
}

// MeanBatchKeys is the mean unique-key size of a coalesced batch.
func (s Stats) MeanBatchKeys() float64 {
	if s.Batches == 0 {
		return 0
	}
	return float64(s.UniqueKeys) / float64(s.Batches)
}

type request struct {
	keys     []int64
	out      chan Result
	enqueued time.Time
	class    Class
}

// metrics is the serve-layer metric bundle; see DESIGN.md §6.2 for the
// naming scheme and overhead contract.
type metrics struct {
	requests      *telemetry.Counter
	failed        *telemetry.Counter
	batches       *telemetry.Counter
	requestedKeys *telemetry.Counter
	uniqueKeys    *telemetry.Counter
	simSeconds    *telemetry.FloatCounter
	fill          [3]*telemetry.Counter // indexed by telemetry.FillReason
	latency       *telemetry.Histogram
	queueWait     *telemetry.Histogram

	// Admission-control observability (DESIGN.md §6.7): requests shed by
	// the bounded rings, the background-class subset, requests that were
	// admitted only after a bounded wait, and the last/peak combined queue
	// depth a worker observed at batch formation.
	rejected           *telemetry.Counter
	rejectedBackground *telemetry.Counter
	admitWaitAdmitted  *telemetry.Counter
	queueDepth         *telemetry.Gauge
	queueDepthPeak     *telemetry.Gauge

	// Fill-source split: every unique key a flush resolves is either a
	// prefetch hit (served from the staging arena) or a demand miss (paid
	// for by the batch's own extraction), so fillPrefetchHit +
	// fillDemandMiss == uniqueKeys. With lookahead off every key is a
	// demand miss.
	fillPrefetchHit *telemetry.Counter
	fillDemandMiss  *telemetry.Counter

	// Prefetch-pipeline counters; all zero when Lookahead is 0.
	prefetchWindows    *telemetry.Counter
	prefetchStagedKeys *telemetry.Counter
	prefetchDropped    *telemetry.Counter
	prefetchErrors     *telemetry.Counter
	prefetchSimSeconds *telemetry.FloatCounter

	// Bounded-staleness observability: how many staged keys were served
	// past their placement version, and the last batch's maximum staleness.
	staleServedKeys *telemetry.Counter
	staleness       *telemetry.Gauge
}

func newMetrics(reg *telemetry.Registry) *metrics {
	// 1us..~4.3s in x2 steps covers sub-millisecond coalesced lookups
	// through multi-second stalls.
	latencyBuckets := telemetry.ExpBuckets(1e-6, 2, 23)
	return &metrics{
		requests:      reg.Counter("serve_requests_total", "requests completed"),
		failed:        reg.Counter("serve_failed_total", "admitted requests answered with an extraction or gather error"),
		batches:       reg.Counter("serve_batches_total", "coalesced batches flushed"),
		requestedKeys: reg.Counter("serve_requested_keys_total", "keys requested before dedup"),
		uniqueKeys:    reg.Counter("serve_unique_keys_total", "unique keys extracted"),
		simSeconds:    reg.FloatCounter("serve_sim_seconds_total", "simulated extraction seconds"),
		fill: [3]*telemetry.Counter{
			telemetry.FillFull:  reg.Counter("serve_batch_fill_full_total", "batches flushed because MaxBatchKeys was reached"),
			telemetry.FillIdle:  reg.Counter("serve_batch_fill_idle_total", "batches flushed because the queue ran empty"),
			telemetry.FillDrain: reg.Counter("serve_batch_fill_drain_total", "batches flushed by the shutdown drain"),
		},
		latency:   reg.Histogram("serve_request_latency_seconds", "request latency from enqueue to reply", latencyBuckets),
		queueWait: reg.Histogram("serve_queue_wait_seconds", "queue wait of a batch's first request", latencyBuckets),

		rejected:           reg.Counter("serve_rejected_total", "requests shed by bounded admission (fast-fail or expired bounded wait)"),
		rejectedBackground: reg.Counter("serve_rejected_background_total", "background-class requests shed by bounded admission"),
		admitWaitAdmitted:  reg.Counter("serve_admit_wait_admitted_total", "requests admitted after a bounded wait on a full queue"),
		queueDepth:         reg.Gauge("serve_queue_depth_last", "combined queued requests observed at the last batch formation"),
		queueDepthPeak:     reg.Gauge("serve_queue_depth_peak", "peak combined queued requests observed at any batch formation"),

		fillPrefetchHit: reg.Counter("serve_fill_prefetch_hit", "unique keys served from the lookahead staging arena"),
		fillDemandMiss:  reg.Counter("serve_fill_demand_miss", "unique keys paid for by the batch's own demand extraction"),

		prefetchWindows:    reg.Counter("serve_prefetch_windows_total", "lookahead windows staged"),
		prefetchStagedKeys: reg.Counter("serve_prefetch_staged_keys_total", "keys committed into the staging arenas"),
		prefetchDropped:    reg.Counter("serve_prefetch_dropped_windows_total", "lookahead windows dropped on a full prefetch queue"),
		prefetchErrors:     reg.Counter("serve_prefetch_errors_total", "prefetch windows abandoned on extract/gather/commit errors"),
		prefetchSimSeconds: reg.FloatCounter("serve_prefetch_sim_seconds_total", "simulated extraction seconds spent off the critical path by prefetch"),

		staleServedKeys: reg.Counter("serve_stale_served_keys_total", "staged keys served past their placement version within the staleness window"),
		staleness:       reg.Gauge("serve_staleness_last_batches", "maximum staleness in batches among the last flush's staged hits"),
	}
}

// Server owns one worker goroutine per GPU.
type Server struct {
	sys        *core.System
	cfg        Config
	entryBytes int
	numEntries int64
	functional bool

	queues []*gpuQueue
	done   chan struct{}
	wg     sync.WaitGroup

	// Per-GPU overload accounting feeding the timeline overload track: sheds
	// since start, and the peak combined ring depth a worker observed.
	shed      []atomic.Int64
	peakDepth []atomic.Int64

	// closeMu fences admission against Close (the two-phase shutdown): an
	// admission pushes under the read lock after checking closed; Close sets
	// closed under the write lock before closing done. Pushes never block
	// (bounded rings fail fast), so the write lock is only ever a few
	// instructions away — Close cannot stall behind parked callers. Taking
	// the write lock excludes every in-flight push, so once done is closed
	// no further request can appear and the workers' final drain provably
	// empties the rings. Bounded waits park outside the lock and re-enter
	// it per attempt.
	closeMu sync.RWMutex
	closed  bool

	tel     *telemetry.Registry
	met     *metrics
	ring    *telemetry.TraceRing
	sampler *cache.HotnessSampler
	ctrl    *core.Controller
	tpb     [][]float64 // platform.TimePerByteTable, for alloc-free trace records
	netSrc  int         // cluster network SourceID as int, -1 off-cluster

	tl      *timeline.Recorder
	linkCap []float64 // topology link capacities, for utilization span args
	fl      *flight.Recorder

	// Lookahead prefetch pipeline (nil/empty when Config.Lookahead == 0).
	// servedKeys[g] counts the keys GPU g's flushes have answered; in units
	// of MaxBatchKeys (batchClock) it is the logical clock the staging
	// arena's bounded-staleness contract is measured in.
	staging      []*cache.StagingArena
	prefetchQ    []chan *prefetchWindow
	prefetchGate []*pendingGate
	servedKeys   []atomic.Int64
	windowPool   sync.Pool
}

// New starts the serving engine for a built system.
func New(sys *core.System, cfg Config) (*Server, error) {
	if sys == nil {
		return nil, fmt.Errorf("serve: nil system")
	}
	cfg = cfg.normalize()
	reg := cfg.Telemetry
	if reg == nil {
		reg = telemetry.NewRegistry(sys.P.N)
	}
	s := &Server{
		sys:        sys,
		cfg:        cfg,
		entryBytes: sys.Cache.EntryBytes,
		numEntries: sys.Placement().NumEntries(),
		functional: sys.Functional(),
		queues:     make([]*gpuQueue, sys.P.N),
		shed:       make([]atomic.Int64, sys.P.N),
		peakDepth:  make([]atomic.Int64, sys.P.N),
		done:       make(chan struct{}),
		tel:        reg,
		met:        newMetrics(reg),
		sampler:    cfg.Sampler,
		ctrl:       cfg.Controller,
		netSrc:     -1,
	}
	if sys.P.HasNetwork() {
		s.netSrc = int(sys.P.Network())
	}
	if cfg.TraceDepth > 0 {
		s.ring = telemetry.NewTraceRing(cfg.TraceDepth)
		s.tpb = sys.P.TimePerByteTable()
	}
	if cfg.Flight != nil {
		s.fl = cfg.Flight
		if s.tpb == nil {
			// Flight batch events carry the per-tier time split even when the
			// trace ring is disabled.
			s.tpb = sys.P.TimePerByteTable()
		}
	}
	if cfg.Timeline != nil {
		// Register the serve and fluid-sim track names once at wiring time;
		// the fmt output here is the interned-string source the hot path
		// reuses (Event names themselves are package literals).
		s.tl = cfg.Timeline
		s.tl.SetProcessName(timeline.ProcServe, "serve")
		for g := 0; g < sys.P.N; g++ {
			s.tl.SetThreadName(timeline.ProcServe, int32(g), fmt.Sprintf("gpu %d worker", g))
		}
		s.tl.SetProcessName(timeline.ProcSim, "fluid-sim links")
		s.linkCap = make([]float64, len(sys.P.Topo.Links))
		for l, link := range sys.P.Topo.Links {
			s.tl.SetThreadName(timeline.ProcSim, int32(l), link.Name)
			s.linkCap[l] = link.Capacity
		}
		s.tl.SetProcessName(timeline.ProcOverload, "overload")
		for g := 0; g < sys.P.N; g++ {
			s.tl.SetThreadName(timeline.ProcOverload, int32(g), fmt.Sprintf("gpu %d admission", g))
		}
	}
	if cfg.Lookahead > 0 {
		n := sys.P.N
		s.staging = make([]*cache.StagingArena, n)
		s.prefetchQ = make([]chan *prefetchWindow, n)
		s.prefetchGate = make([]*pendingGate, n)
		for g := 0; g < n; g++ {
			s.prefetchGate[g] = newPendingGate()
		}
		s.servedKeys = make([]atomic.Int64, n)
		s.windowPool.New = func() any { return &prefetchWindow{} }
		depth := max(2*cfg.Lookahead, cfg.QueueDepth)
		for g := 0; g < n; g++ {
			arena, err := cache.NewStaging(cfg.StagingEntries, s.entryBytes, s.functional)
			if err != nil {
				return nil, err
			}
			s.staging[g] = arena
			s.prefetchQ[g] = make(chan *prefetchWindow, depth)
		}
		if s.tl != nil {
			s.tl.SetProcessName(timeline.ProcPrefetch, "prefetch")
			for g := 0; g < n; g++ {
				s.tl.SetThreadName(timeline.ProcPrefetch, int32(g), fmt.Sprintf("gpu %d prefetch", g))
			}
		}
	}
	for g := range s.queues {
		s.queues[g] = newGPUQueue(s.cfg.QueueDepth, s.cfg.BackgroundQueueDepth)
		s.wg.Add(1)
		go s.worker(g)
	}
	if s.prefetchQ != nil {
		for g := range s.prefetchQ {
			s.wg.Add(1)
			go s.prefetchWorker(g)
		}
	}
	return s, nil
}

// Metrics returns the server's telemetry registry (the one passed in
// Config.Telemetry, or the private default).
func (s *Server) Metrics() *telemetry.Registry { return s.tel }

// Trace returns the per-batch trace ring, or nil when tracing is disabled.
func (s *Server) Trace() *telemetry.TraceRing { return s.ring }

// Handle enqueues one inference-class request for GPU gpu and returns the
// channel its Result will arrive on (buffered; the caller need not be
// ready). The keys slice is not retained past completion but must not be
// mutated until the result arrives. Admission is bounded: a full queue
// sheds with ErrOverload (after Config.AdmitWait, when set) instead of
// blocking the caller. Every request admitted before Close returns is
// guaranteed a Result; requests racing Close get ErrClosed.
func (s *Server) Handle(gpu int, keys []int64) <-chan Result {
	return s.HandleClass(gpu, keys, ClassInference)
}

// HandleClass is Handle with an explicit admission class. ClassBackground
// requests ride the smaller low-priority ring: they shed earlier under
// pressure and are only served when no inference request is pending. A key
// outside the table fails this request alone, with ErrBadKey.
func (s *Server) HandleClass(gpu int, keys []int64, class Class) <-chan Result {
	out := make(chan Result, 1)
	if gpu < 0 || gpu >= len(s.queues) {
		out <- Result{Err: fmt.Errorf("serve: bad gpu %d", gpu)}
		return out
	}
	if len(keys) == 0 {
		out <- Result{}
		return out
	}
	// Checked here, on the caller's goroutine: past admission a request
	// shares its batch's one extraction, where a bad key would fail every
	// request coalesced with it.
	for _, k := range keys {
		if k < 0 || k >= s.numEntries {
			out <- Result{Err: fmt.Errorf("%w: %d not in [0, %d)", ErrBadKey, k, s.numEntries)}
			return out
		}
	}
	r := &request{keys: keys, out: out, enqueued: time.Now(), class: class}
	if err := s.admit(gpu, r); err != nil {
		out <- Result{Err: err}
	}
	return out
}

// admit pushes one request through the bounded admission path: a lock-free
// ring push under the close fence, then — when Config.AdmitWait allows — a
// deadline-bounded park on the space-freed signal with a retry per wakeup.
// Returns nil once the request is queued, ErrOverload on a shed, ErrClosed
// when the server shut down first.
func (s *Server) admit(gpu int, r *request) error {
	q := s.queues[gpu]
	s.closeMu.RLock()
	if s.closed {
		s.closeMu.RUnlock()
		return ErrClosed
	}
	ok := q.push(r)
	s.closeMu.RUnlock()
	if ok {
		q.wake()
		return nil
	}
	if s.cfg.AdmitWait <= 0 {
		return s.reject(gpu, r.class)
	}
	// Bounded wait: park outside the close fence so Close never stalls
	// behind waiters, re-attempt the push on every space signal, and shed
	// when the deadline fires. The timer allocation is fine — this is the
	// overload slow path by definition.
	timer := time.NewTimer(s.cfg.AdmitWait)
	defer timer.Stop()
	for {
		select {
		case <-q.space:
		case <-timer.C:
			return s.reject(gpu, r.class)
		case <-s.done:
			return ErrClosed
		}
		s.closeMu.RLock()
		if s.closed {
			s.closeMu.RUnlock()
			return ErrClosed
		}
		ok := q.push(r)
		s.closeMu.RUnlock()
		if ok {
			q.wake()
			s.met.admitWaitAdmitted.Add(gpu, 1)
			return nil
		}
	}
}

// reject records one shed and returns ErrOverload.
func (s *Server) reject(gpu int, class Class) error {
	s.met.rejected.Add(gpu, 1)
	if class == ClassBackground {
		s.met.rejectedBackground.Add(gpu, 1)
	}
	s.shed[gpu].Add(1)
	return ErrOverload
}

// Lookup is the synchronous form of Handle.
func (s *Server) Lookup(gpu int, keys []int64) (Result, error) {
	res := <-s.Handle(gpu, keys)
	return res, res.Err
}

// QueueDepths returns GPU gpu's current (approximate) queued-request counts
// for the inference and background rings — a diagnostics/backpressure probe,
// not a synchronization primitive.
func (s *Server) QueueDepths(gpu int) (inference, background int) {
	if gpu < 0 || gpu >= len(s.queues) {
		return 0, 0
	}
	return s.queues[gpu].high.depth(), s.queues[gpu].low.depth()
}

// QueueCapacity returns the per-GPU admission ring capacities (inference
// and background) after defaulting and power-of-two rounding — what load
// drivers should report peak depths against.
func (s *Server) QueueCapacity() (inference, background int) {
	return s.queues[0].high.capacity(), s.queues[0].low.capacity()
}

// Close stops accepting requests, flushes everything already queued, and
// waits for the workers to exit. Safe to call more than once; concurrent
// Handle calls either complete normally or observe ErrClosed/ErrOverload —
// none are stranded, and because admission never blocks inside the close
// fence (bounded waits park outside it and watch done), Close cannot stall
// behind a saturated queue.
func (s *Server) Close() {
	s.closeMu.Lock()
	if s.closed {
		s.closeMu.Unlock()
		return
	}
	s.closed = true
	s.closeMu.Unlock()
	// Phase 2: every in-flight Handle has either enqueued or been rejected;
	// with closed set no new one can enter. The workers drain what is left
	// and exit.
	close(s.done)
	s.wg.Wait()
}

// Stats returns a copy of the cumulative counters.
func (s *Server) Stats() Stats {
	return Stats{
		Requests:      s.met.requests.Value(),
		Batches:       s.met.batches.Value(),
		RequestedKeys: s.met.requestedKeys.Value(),
		UniqueKeys:    s.met.uniqueKeys.Value(),
		SimSeconds:    s.met.simSeconds.Value(),
	}
}

// workerScratch is one worker's reusable flush state: the open-addressing
// dedup table (replacing a throwaway map per flush), the unique-key list,
// the single-GPU extraction batch, the staging buffer for gathered unique
// rows, and the core-level extract/gather scratch. All of it lives for the
// worker's lifetime, so a steady-state flush allocates only the
// caller-owned Result.Rows block.
type workerScratch struct {
	dedup *hashtable.Dedup
	uniq  []int64
	batch extract.Batch
	rows  []byte
	core  *core.Scratch
	seq   int64 // batches flushed by this worker (trace sampling)
	span  *timeline.Shard

	// reqs is the reusable batch-formation slice (flushNext rebuilds it in
	// place every batch) and lastShed the shed count already published to
	// the overload track and the flight ring.
	reqs     []*request
	lastShed int64

	// flight is this worker's flight ring (nil when flight recording is
	// off); the worker is its only producer.
	flight *flight.Ring

	// Staging-consume buffers, used only when the prefetch pipeline is on:
	// the per-unique-key hit mask, the residual demand keys with their
	// positions in uniq, the staged-hit key list for the extraction's
	// staged-source plan, and the demand gather target (scattered back into
	// rows afterwards). All grow once and live with the worker, keeping the
	// enabled flush path allocation-free too.
	hit        []bool
	demand     []int64
	demandIdx  []int32
	staged     []int64
	demandRows []byte
}

func (s *Server) newWorkerScratch(g int) *workerScratch {
	sc := &workerScratch{
		dedup: hashtable.NewDedup(s.cfg.MaxBatchKeys),
		batch: extract.Batch{Keys: make([][]int64, s.sys.P.N)},
		core:  core.NewScratch(),
	}
	if s.staging != nil {
		sc.batch.Staged = make([][]int64, s.sys.P.N)
	}
	if s.tl != nil {
		sc.span = s.tl.Shard(g)
		sc.core.RecordSimPhases(true)
	}
	if s.fl != nil {
		sc.flight = s.fl.Ring(g)
	}
	return sc
}

// worker is GPU g's coalescing loop: flush whatever backlog the rings hold,
// one batch at a time, and park on the queue's wakeup token only when both
// are empty (producers post it after every successful push, and the worker
// re-checks the rings after every token, so a wakeup is never lost — see
// gpuQueue). There is no timer: a request that finds the worker idle leaves
// alone and at once, and batches grow only because requests queued up while
// the previous flush ran.
func (s *Server) worker(g int) {
	defer s.wg.Done()
	q := s.queues[g]
	sc := s.newWorkerScratch(g)
	for {
		if s.flushNext(g, q, sc, false) {
			continue
		}
		select {
		case <-q.notify:
		case <-s.done:
			// Close's write lock has excluded every producer by the time done
			// closes, so an empty poll now means the rings are empty for
			// good: flush what is left so no admitted caller is stranded.
			for s.flushNext(g, q, sc, true) {
			}
			return
		}
	}
}

// flushNext forms one batch from the backlog — the oldest queued request
// plus every follower until MaxBatchKeys keys are in hand or the rings are
// empty — and flushes it. It reports false, having done nothing, when there
// was no request to take. draining marks the shutdown drain's batches.
func (s *Server) flushNext(g int, q *gpuQueue, sc *workerScratch, draining bool) bool {
	first := q.pop()
	if first == nil {
		return false
	}
	queueWait := time.Since(first.enqueued)
	batch := append(sc.reqs[:0], first)
	pending := len(first.keys)
	reason := telemetry.FillFull
	for pending < s.cfg.MaxBatchKeys {
		r := q.pop()
		if r == nil {
			reason = telemetry.FillIdle
			break
		}
		batch = append(batch, r)
		pending += len(r.keys)
	}
	if draining {
		reason = telemetry.FillDrain
	}
	sc.reqs = batch
	s.observeQueue(g, q, sc)
	s.flush(g, batch, sc, reason, queueWait)
	// The batch formation freed ring space: wake one bounded-wait admitter,
	// if any are parked.
	q.freed()
	return true
}

// observeQueue publishes the admission-side backpressure signals at batch
// formation: the queue-depth gauges, the peak tracker, and — when a span
// recorder or flight ring is wired — the overload counter series (queued
// depth and cumulative sheds per GPU), so saturation is visible in Perfetto
// and survives in the flight rings alongside the batch events.
func (s *Server) observeQueue(g int, q *gpuQueue, sc *workerScratch) {
	depth := q.depth()
	s.met.queueDepth.Set(float64(depth))
	if peak := s.peakDepth[g].Load(); int64(depth) > peak {
		s.peakDepth[g].Store(int64(depth))
		max := int64(depth)
		for i := range s.peakDepth {
			if v := s.peakDepth[i].Load(); v > max {
				max = v
			}
		}
		s.met.queueDepthPeak.Set(float64(max))
	}
	if sc.span == nil && sc.flight == nil {
		return
	}
	shed := s.shed[g].Load()
	newSheds := shed - sc.lastShed
	sc.lastShed = shed
	if sc.flight != nil {
		e := flight.Event{Kind: flight.KindQueue, GPU: int32(g), UnixNanos: time.Now().UnixNano()}
		e.V[flight.QueueDepth] = float64(depth)
		e.V[flight.QueueShedTotal] = float64(shed)
		sc.flight.Record(&e)
		if newSheds > 0 {
			e = flight.Event{Kind: flight.KindShed, GPU: int32(g), UnixNanos: e.UnixNanos}
			e.V[flight.ShedNew] = float64(newSheds)
			sc.flight.Record(&e)
		}
	}
	if sc.span == nil {
		return
	}
	now := s.tl.Now()
	ev := timeline.Event{Name: "queue_depth", Cat: "overload", Ph: timeline.PhCounter,
		PID: timeline.ProcOverload, TID: int32(g), Start: now}
	ev.AddArg("requests", float64(depth))
	sc.span.Emit(&ev)
	ev2 := timeline.Event{Name: "shed_total", Cat: "overload", Ph: timeline.PhCounter,
		PID: timeline.ProcOverload, TID: int32(g), Start: now}
	ev2.AddArg("requests", float64(shed))
	sc.span.Emit(&ev2)
	if newSheds > 0 {
		inst := timeline.Event{Name: "overload-shed", Cat: "overload", Ph: timeline.PhInstant,
			PID: timeline.ProcOverload, TID: int32(g), Start: now}
		inst.AddArg("new_sheds", float64(newSheds))
		sc.span.Emit(&inst)
	}
}

// flush coalesces the batch's keys, runs one extraction, and fans the
// per-request results back out. Everything it needs lives in the worker's
// scratch; the only steady-state allocation is the batch-sized Rows block
// handed to the callers (see Result.Rows). The telemetry updates are
// lock-free shard writes and one preallocated trace-ring copy.
func (s *Server) flush(g int, batch []*request, sc *workerScratch, reason telemetry.FillReason, queueWait time.Duration) {
	// Wall-clock checkpoints for the span tree; only taken when tracing is
	// on (sc.span is nil otherwise, and the clock reads cost nothing).
	var ft flushTimes
	if sc.span != nil {
		ft.enqueue = s.tl.Since(batch[0].enqueued)
		ft.dequeue = ft.enqueue + queueWait.Seconds()
	}
	// Dedupe across requests with the generation-stamped open-addressing
	// table, remembering each unique key's row index.
	requested := 0
	for _, r := range batch {
		requested += len(r.keys)
	}
	sc.dedup.Reset(requested)
	uniq := sc.uniq[:0]
	for _, r := range batch {
		for _, k := range r.keys {
			if _, fresh := sc.dedup.Add(k); fresh {
				uniq = append(uniq, k)
			}
		}
	}
	sc.uniq = uniq

	// Resolve staged prefetch hits before the extraction (pipeline on only):
	// hit rows are copied straight out of the staging arena under one read
	// lock, the residual demand keys ride the extraction as usual, and the
	// staged keys are charged as local reads via the staged-source plan so
	// the batch's modelled time reflects the overlap win.
	extractKeys := uniq
	prefetchHits, staleServed := 0, 0
	staleMax := int64(0)
	var rows []byte
	if s.functional {
		need := len(uniq) * s.entryBytes
		if cap(sc.rows) < need {
			sc.rows = make([]byte, need)
		}
		rows = sc.rows[:need]
	}
	if s.staging != nil {
		if cap(sc.hit) < len(uniq) {
			sc.hit = make([]bool, len(uniq))
		}
		hitMask := sc.hit[:len(uniq)]
		version := s.sys.PlacementVersion()
		now := s.batchClock(g)
		prefetchHits, staleServed, staleMax = s.staging[g].Consume(
			uniq, now, int64(s.cfg.StaleBatches), version, rows, hitMask)
		if prefetchHits > 0 {
			demand := sc.demand[:0]
			demandIdx := sc.demandIdx[:0]
			stagedKeys := sc.staged[:0]
			for i, k := range uniq {
				if hitMask[i] {
					stagedKeys = append(stagedKeys, k)
				} else {
					demand = append(demand, k)
					demandIdx = append(demandIdx, int32(i))
				}
			}
			sc.demand, sc.demandIdx, sc.staged = demand, demandIdx, stagedKeys
			sc.batch.Staged[g] = stagedKeys
			extractKeys = demand
		}
	}

	// One simulated extraction for the whole coalesced batch. The result
	// aliases sc.core, so pull out the scalars we need before reusing it.
	sc.batch.Keys[g] = extractKeys
	if sc.span != nil {
		ft.extractStart = s.tl.Now()
	}
	res, err := s.sys.ExtractBatchWith(&sc.batch, sc.core)
	sc.batch.Keys[g] = nil
	if sc.batch.Staged != nil {
		sc.batch.Staged[g] = nil
	}
	if err != nil {
		s.fail(g, batch, err)
		return
	}
	if sc.span != nil {
		ft.extractEnd = s.tl.Now()
		ft.gatherEnd = ft.extractEnd
	}
	simTime := res.Time
	phases := res.Phases
	sc.seq++
	sampled := sc.seq%int64(s.cfg.TraceEvery) == 0
	if s.ring != nil && sampled {
		s.recordTrace(g, sc.seq, batch, res, requested, len(uniq), reason, queueWait, simTime, prefetchHits, staleMax)
	}
	// The flight batch event's tier split is read here, before the
	// functional gather below reuses sc.core (res aliases the scratch).
	var flLocal, flRemote, flHost, flNetwork float64
	if sc.flight != nil {
		host, network := int(s.sys.P.Host()), s.netSrc
		for j, bytes := range res.SrcBytes[g] {
			if bytes == 0 {
				continue
			}
			sec := bytes * s.tpb[g][j]
			switch {
			case j == host:
				flHost += sec
			case j == network:
				flNetwork += sec
			case j == g:
				flLocal += sec
			default:
				flRemote += sec
			}
		}
	}

	// Feed the §7.2 hotness sampler with this batch's unique keys; shard g
	// belongs to this worker, so the observation is race-free.
	if s.sampler != nil {
		s.sampler.Shard(g).Observe(uniq)
	}
	if s.ctrl != nil {
		s.ctrl.BatchObserved()
	}

	// One functional gather into the worker's row buffer, if the system
	// holds bytes. With staged hits the gather covers only the residual
	// demand keys — their rows land in a side buffer and are scattered back
	// into the hit-interleaved positions; the staged rows were already
	// copied by Consume.
	if s.functional {
		if prefetchHits > 0 {
			if len(extractKeys) > 0 {
				need := len(extractKeys) * s.entryBytes
				if cap(sc.demandRows) < need {
					sc.demandRows = make([]byte, need)
				}
				dr := sc.demandRows[:need]
				if err := s.sys.LookupWith(g, extractKeys, dr, sc.core); err != nil {
					s.fail(g, batch, err)
					return
				}
				for j, i := range sc.demandIdx {
					copy(rows[int(i)*s.entryBytes:(int(i)+1)*s.entryBytes], dr[j*s.entryBytes:(j+1)*s.entryBytes])
				}
			}
		} else if err := s.sys.LookupWith(g, uniq, rows, sc.core); err != nil {
			s.fail(g, batch, err)
			return
		}
		if sc.span != nil {
			ft.gatherEnd = s.tl.Now()
		}
	}

	// Fan back out: one caller-owned allocation for the whole batch, carved
	// into full-capacity-clipped per-request sub-slices.
	var outBuf []byte
	if rows != nil {
		outBuf = make([]byte, requested*s.entryBytes)
	}
	off := 0
	maxLat := 0.0
	for _, r := range batch {
		out := Result{SimSeconds: simTime, BatchKeys: len(uniq)}
		if rows != nil {
			end := off + len(r.keys)*s.entryBytes
			out.Rows = outBuf[off:end:end]
			for i, k := range r.keys {
				j, _ := sc.dedup.Index(k)
				copy(out.Rows[i*s.entryBytes:], rows[j*s.entryBytes:(j+1)*s.entryBytes])
			}
			off = end
		}
		r.out <- out
		lat := time.Since(r.enqueued).Seconds()
		if lat > maxLat {
			maxLat = lat
		}
		s.met.latency.Observe(g, lat)
	}

	m := s.met
	m.requests.Add(g, int64(len(batch)))
	m.batches.Add(g, 1)
	m.requestedKeys.Add(g, int64(requested))
	m.uniqueKeys.Add(g, int64(len(uniq)))
	m.simSeconds.Add(g, simTime)
	m.fill[reason].Add(g, 1)
	m.queueWait.Observe(g, queueWait.Seconds())
	m.fillPrefetchHit.Add(g, int64(prefetchHits))
	m.fillDemandMiss.Add(g, int64(len(uniq)-prefetchHits))
	if s.staging != nil {
		if staleServed > 0 {
			m.staleServedKeys.Add(g, int64(staleServed))
		}
		m.staleness.Set(float64(staleMax))
		// Advance GPU g's batch clock: the staleness window of every staged
		// row is measured against it.
		s.servedKeys[g].Add(int64(requested))
	}

	if sc.span != nil {
		ft.replyEnd = s.tl.Now()
		s.emitFlushSpans(g, sc, &ft, len(batch), requested, len(uniq), reason, simTime, phases, sampled, prefetchHits, staleMax)
	}

	if sc.flight != nil {
		// The event's Seq is this worker's batch sequence — the same value
		// the timeline root span carries as its seq arg, which is what lets
		// a bundle's exemplar resolve into the matching span tree. Recorded
		// after the spans are out, so an event that predates a timeline
		// snapshot has its whole tree in it (flight.WriteBundle).
		e := flight.Event{Kind: flight.KindBatch, GPU: int32(g), Seq: sc.seq,
			UnixNanos: time.Now().UnixNano()}
		e.V[flight.BatchLatencySeconds] = maxLat
		e.V[flight.BatchRequests] = float64(len(batch))
		e.V[flight.BatchUniqueKeys] = float64(len(uniq))
		e.V[flight.BatchPrefetchHits] = float64(prefetchHits)
		e.V[flight.BatchSimSeconds] = simTime
		e.V[flight.BatchLocalSeconds] = flLocal
		e.V[flight.BatchRemoteSeconds] = flRemote
		e.V[flight.BatchHostSeconds] = flHost
		e.V[flight.BatchNetworkSeconds] = flNetwork
		sc.flight.Record(&e)
	}
}

// flushTimes are one traced flush's wall-clock checkpoints, in seconds since
// the recorder epoch. gatherEnd equals extractEnd in timing-only mode.
type flushTimes struct {
	enqueue, dequeue, extractStart, extractEnd, gatherEnd, replyEnd float64
}

// emitFlushSpans renders one flushed batch as its span tree on the serve
// track and — for sampled batches whose extraction carried a fluid-sim phase
// log — the per-link flow spans on the sim track, anchored at the
// extraction's wall start so the simulated timeline nests visually under the
// extract span. All names are package literals; nothing here allocates
// beyond the shard's ring copy.
func (s *Server) emitFlushSpans(g int, sc *workerScratch, ft *flushTimes,
	requests, requested, unique int, reason telemetry.FillReason,
	simTime float64, phases *sim.PhaseLog, sampled bool,
	prefetchHits int, staleMax int64) {
	tid := int32(g)
	root := timeline.Event{Name: "batch", Cat: "serve", Ph: timeline.PhSpan,
		PID: timeline.ProcServe, TID: tid, Start: ft.enqueue, Dur: ft.replyEnd - ft.enqueue}
	// seq keys the span tree to this worker's batch sequence — the join
	// column flight-recorder exemplars resolve through.
	root.AddArg("seq", float64(sc.seq))
	root.AddArg("requests", float64(requests))
	root.AddArg("requested_keys", float64(requested))
	root.AddArg("unique_keys", float64(unique))
	root.AddArg("sim_seconds", simTime)
	root.AddArg("fill_reason", float64(reason))
	if s.staging != nil {
		root.AddArg("prefetch_hits", float64(prefetchHits))
		root.AddArg("staleness_batches", float64(staleMax))
	}
	sc.span.Emit(&root)
	child := func(name string, start, end float64) {
		if end < start {
			end = start
		}
		ev := timeline.Event{Name: name, Cat: "serve", Ph: timeline.PhSpan,
			PID: timeline.ProcServe, TID: tid, Start: start, Dur: end - start}
		sc.span.Emit(&ev)
	}
	child("queue-wait", ft.enqueue, ft.dequeue)
	child("coalesce", ft.dequeue, ft.extractStart)
	child("extract", ft.extractStart, ft.extractEnd)
	if ft.gatherEnd > ft.extractEnd {
		child("gather", ft.extractEnd, ft.gatherEnd)
	}
	child("reply", ft.gatherEnd, ft.replyEnd)

	if !sampled || phases == nil {
		return
	}
	prev := 0.0
	for p := 0; p < phases.Phases(); p++ {
		end := phases.T[p]
		for l := range s.linkCap {
			rate := phases.RateAt(p, sim.LinkID(l))
			if rate <= 0 {
				continue
			}
			ev := timeline.Event{Name: "link-flow", Cat: "sim", Ph: timeline.PhSpan,
				PID: timeline.ProcSim, TID: int32(l), Start: ft.extractStart + prev, Dur: end - prev}
			if c := s.linkCap[l]; c > 0 {
				ev.AddArg("util", rate/c)
			}
			ev.AddArg("rate_bytes_per_s", rate)
			sc.span.Emit(&ev)
		}
		prev = end
	}
}

// recordTrace snapshots one batch into the trace ring: formation stats plus
// the per-tier bytes and modelled seconds from the extractor's
// source-volume matrix (read before the scratch is reused).
func (s *Server) recordTrace(g int, seq int64, batch []*request, res *extract.Result,
	requested, unique int, reason telemetry.FillReason, queueWait time.Duration, simTime float64,
	prefetchHits int, staleMax int64) {
	tr := telemetry.BatchTrace{
		Seq:              seq,
		GPU:              g,
		UnixNanos:        time.Now().UnixNano(),
		QueueWaitSeconds: queueWait.Seconds(),
		Requests:         len(batch),
		RequestedKeys:    requested,
		UniqueKeys:       unique,
		Reason:           reason,
		SimSeconds:       simTime,
		PrefetchHits:     prefetchHits,
		StaleBatches:     staleMax,
	}
	host, network := int(s.sys.P.Host()), s.netSrc
	for j, bytes := range res.SrcBytes[g] {
		if bytes == 0 {
			continue
		}
		sec := bytes * s.tpb[g][j]
		switch {
		case j == host:
			tr.HostBytes += bytes
			tr.HostSeconds += sec
		case j == network:
			tr.NetworkBytes += bytes
			tr.NetworkSeconds += sec
		case j == g:
			tr.LocalBytes += bytes
			tr.LocalSeconds += sec
		default:
			tr.RemoteBytes += bytes
			tr.RemoteSeconds += sec
		}
	}
	s.ring.Record(&tr)
}

// fail answers every request of a batch whose extraction or gather errored,
// and counts them: requests + rejected + failed is every request admission
// was asked to take.
func (s *Server) fail(g int, batch []*request, err error) {
	for _, r := range batch {
		r.out <- Result{Err: err}
	}
	s.met.failed.Add(g, int64(len(batch)))
}
