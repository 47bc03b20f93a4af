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
// histograms, batch fill-reason counters, coalescing totals) and one
// flight.Batch record per flushed batch, written once into the worker's own
// seqlock ring; both update through lock-free per-worker state, so
// instrumentation keeps the flush path at its BENCH_hotpath.json allocation
// budget: 4 allocations a flush, 5 with a gather (DESIGN.md §6.2). Server.Trace, the flight JSONL and the Chrome-trace
// batch trees are read-side views of those rings.
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
	"ugache/internal/telemetry"
)

// ErrClosed is returned by requests that reach a closed (or closing)
// server.
var ErrClosed = errors.New("serve: server closed")

// ErrBadKey is returned (wrapped, with the offending key) to the caller of a
// request that names a key outside the table. The request is refused before
// admission, so it never shares a batch with — and can never fail — anyone
// else's.
var ErrBadKey = errors.New("serve: key out of range")

// ErrBadGPU is returned (wrapped, with the offending index) to the caller of
// a request for a GPU the server does not have.
var ErrBadGPU = errors.New("serve: bad gpu")

// ErrOverload is returned by requests the admission controller sheds: the
// destination GPU's queue was full when the request arrived. Overload is a
// first-class serving state, not a fault — callers are expected to retry
// with backoff, degrade, or drop, and the shed is counted in
// serve_rejected_total.
var ErrOverload = errors.New("serve: overloaded, request shed")

// Config tunes the coalescer.
type Config struct {
	// MaxBatchKeys caps a coalesced batch: the worker stops taking queued
	// requests once this many (non-deduplicated) keys are in hand (default
	// 8192, one paper-sized iteration). A batch never waits to reach the cap
	// — it leaves as soon as the queue is empty.
	MaxBatchKeys int
	// QueueDepth bounds the per-GPU admission ring (default 256, rounded up
	// to a power of two). A request that finds its ring full is shed at once
	// with ErrOverload; Handle never waits for space.
	QueueDepth int

	// Lookahead enables the prefetch pipeline: L is how many batches ahead
	// clients announce upcoming keys via Prefetch. Here and in StaleBatches a
	// batch is MaxBatchKeys requested keys of traffic on the GPU — one
	// paper-sized iteration — however many flushes carried them: a full
	// batch at saturation, hundreds of single-request flushes below the knee.
	// Announced windows wait for the prefetch worker in a per-GPU queue as
	// deep as the admission ring (one window per request that can be
	// pending; 2L if that is more) and are dropped beyond it. Each GPU's
	// staging arena holds Lookahead x MaxBatchKeys rows: the announced
	// traffic, if none of it were cached.
	// 0 (the default) disables prefetching entirely — no staging arena, no
	// workers, and a flush path identical to a non-prefetching server.
	Lookahead int
	// StaleBatches is the bounded-staleness window S: after a Refresh swaps
	// the placement, staged rows committed under the outgoing placement
	// version (core.System.PlacementVersion) may still be served until S
	// batches of keys (S x MaxBatchKeys, see Lookahead) have been served
	// since their commit, instead of being discarded. 0 means staged rows
	// die with their snapshot.
	StaleBatches int

	// Telemetry receives the engine's metrics, the one read path for its
	// counts. Nil keeps them in a private registry (sharded per GPU) that
	// nothing reads, as core.Config.Telemetry does; pass the same registry
	// to core.Config.Telemetry to get the extraction and refresh metrics
	// alongside.
	Telemetry *telemetry.Registry
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
	// Flight is the recorder whose rings take the batch records (DESIGN.md
	// §6.6) and whose control ring takes staged prefetch windows; its trace
	// (flight.Draw) draws them all. The server claims one ring per worker
	// at once, so a recorder shared between servers must be sized to all
	// their workers. Nil creates a private recorder, so Trace always works.
	Flight *flight.Recorder
}

// privateRecordDepth is the per-worker ring depth of the recorder a server
// makes for itself when Config.Flight is nil.
const privateRecordDepth = 256

func (c Config) normalize() Config {
	if c.MaxBatchKeys <= 0 {
		c.MaxBatchKeys = 8192
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.Lookahead < 0 {
		c.Lookahead = 0
	}
	if c.StaleBatches < 0 {
		c.StaleBatches = 0
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

type request struct {
	keys     []int64
	out      chan Result
	enqueued time.Time
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
	fill          [3]*telemetry.Counter // indexed by flight.FillReason
	latency       *telemetry.Histogram
	queueWait     *telemetry.Histogram

	// Admission-control observability (DESIGN.md §6.5): requests shed by
	// the bounded ring, and the last/peak queue depth a worker observed at
	// batch formation.
	rejected       *telemetry.Counter
	queueDepth     *telemetry.Gauge
	queueDepthPeak *telemetry.Gauge

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
			flight.FillFull:  reg.Counter("serve_batch_fill_full_total", "batches flushed because MaxBatchKeys was reached"),
			flight.FillIdle:  reg.Counter("serve_batch_fill_idle_total", "batches flushed because the queue ran empty"),
			flight.FillDrain: reg.Counter("serve_batch_fill_drain_total", "batches flushed by the shutdown drain"),
		},
		latency:   reg.Histogram("serve_request_latency_seconds", "request latency from enqueue to reply", latencyBuckets),
		queueWait: reg.Histogram("serve_queue_wait_seconds", "queue wait of a batch's first request", latencyBuckets),

		rejected:       reg.Counter("serve_rejected_total", "requests shed because their GPU's admission queue was full"),
		queueDepth:     reg.Gauge("serve_queue_depth_last", "queued requests observed at the last batch formation"),
		queueDepthPeak: reg.Gauge("serve_queue_depth_peak", "peak queued requests observed at any batch formation"),

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

	// Overload accounting: per-GPU sheds since start (stamped into every
	// batch record), and the peak ring depth any worker observed.
	shed      []atomic.Int64
	peakDepth atomic.Int64

	// closeMu fences admission against Close (the two-phase shutdown): an
	// admission pushes under the read lock after checking closed; Close sets
	// closed under the write lock before closing done. Pushes never block
	// (bounded rings fail fast), so the write lock is only ever a few
	// instructions away. Taking the write lock excludes every in-flight
	// push, so once done is closed no further request can appear and the
	// workers' final drain provably empties the rings.
	closeMu sync.RWMutex
	closed  bool

	met     *metrics
	sampler *cache.HotnessSampler
	ctrl    *core.Controller

	// fl is the flight recorder (Config.Flight or a private one), rings the
	// worker rings claimed from it (ring g is worker g's).
	fl    *flight.Recorder
	rings []*flight.Ring

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
		done:       make(chan struct{}),
		met:        newMetrics(reg),
		sampler:    cfg.Sampler,
		ctrl:       cfg.Controller,
		fl:         cfg.Flight,
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
			arena, err := cache.NewStaging(cfg.Lookahead*cfg.MaxBatchKeys, s.entryBytes, s.functional)
			if err != nil {
				return nil, err
			}
			s.staging[g] = arena
			s.prefetchQ[g] = make(chan *prefetchWindow, depth)
		}
	}
	if s.fl == nil {
		s.fl = flight.NewRecorder(sys.P.N, privateRecordDepth)
	}
	if s.rings = s.fl.Claim(sys.P.N); s.rings == nil {
		return nil, fmt.Errorf("serve: flight recorder has fewer than the %d unclaimed rings its workers need (it has %d; size it to every worker recording into it)",
			sys.P.N, s.fl.Workers())
	}
	for g := range s.queues {
		s.queues[g] = newGPUQueue(s.cfg.QueueDepth)
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

// Trace returns the read-side view over this server's batch records: the
// last ring-depth flushes of each worker.
func (s *Server) Trace() *flight.Trace { return flight.NewTrace(s.rings) }

// Handle enqueues one request for GPU gpu and returns the channel its Result
// will arrive on (buffered; the caller need not be ready). The keys slice is
// not retained past completion but must not be mutated until the result
// arrives. Handle never blocks: a full queue sheds the request with
// ErrOverload, already in the returned channel when Handle returns. A GPU
// index out of range fails the request with ErrBadGPU, and a key outside the
// table fails this request alone, with ErrBadKey. Every request
// admitted before Close returns is guaranteed a Result; requests racing
// Close get ErrClosed.
func (s *Server) Handle(gpu int, keys []int64) <-chan Result {
	out := make(chan Result, 1)
	if gpu < 0 || gpu >= len(s.queues) {
		out <- Result{Err: fmt.Errorf("%w %d not in [0, %d)", ErrBadGPU, gpu, len(s.queues))}
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
	r := &request{keys: keys, out: out, enqueued: time.Now()}
	if err := s.admit(gpu, r); err != nil {
		out <- Result{Err: err}
	}
	return out
}

// admit pushes one request onto its GPU's ring under the close fence.
// Returns nil once the request is queued, ErrOverload (a counted shed) when
// the ring is full, ErrClosed when the server shut down first.
func (s *Server) admit(gpu int, r *request) error {
	q := s.queues[gpu]
	s.closeMu.RLock()
	if s.closed {
		s.closeMu.RUnlock()
		return ErrClosed
	}
	ok := q.push(r)
	s.closeMu.RUnlock()
	if !ok {
		return s.reject(gpu)
	}
	q.wake()
	return nil
}

// reject records one shed and returns ErrOverload.
func (s *Server) reject(gpu int) error {
	s.met.rejected.Add(gpu, 1)
	s.shed[gpu].Add(1)
	return ErrOverload
}

// Lookup is the synchronous form of Handle.
func (s *Server) Lookup(gpu int, keys []int64) (Result, error) {
	res := <-s.Handle(gpu, keys)
	return res, res.Err
}

// QueueCapacity returns the per-GPU admission ring capacity after defaulting
// and power-of-two rounding — what load drivers should report peak depths
// against.
func (s *Server) QueueCapacity() int { return s.queues[0].capacity() }

// Close stops accepting requests, flushes everything already queued, and
// waits for the workers to exit. Safe to call more than once; concurrent
// Handle calls either complete normally or observe ErrClosed/ErrOverload —
// none are stranded, and because admission never blocks, Close cannot stall
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

	// reqs is the reusable batch-formation slice (flushNext rebuilds it in
	// place every batch) and replies its Results, ready before any is sent.
	// rec is the record of the batch in hand — flushNext fills in how it
	// formed, flush the rest — and ring this worker's own ring, which takes
	// it once the replies are ready and before they are sent.
	reqs    []*request
	replies []Result
	rec     flight.Batch
	ring    *flight.Ring

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
		ring:  s.rings[g],
	}
	if s.staging != nil {
		sc.batch.Staged = make([][]int64, s.sys.P.N)
	}
	return sc
}

// grow returns (*buf)[:n], reallocating when the capacity falls short.
func grow[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	return (*buf)[:n]
}

// worker is GPU g's coalescing loop: flush whatever backlog the ring holds,
// one batch at a time, and park on the queue's wakeup token only when it is
// empty (producers post it after every successful push, and the worker
// re-checks the ring after every token, so a wakeup is never lost — see
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
			// closes, so an empty poll now means the ring is empty for
			// good: flush what is left so no admitted caller is stranded.
			for s.flushNext(g, q, sc, true) {
			}
			return
		}
	}
}

// flushNext forms one batch from the backlog — the oldest queued request
// plus every follower until MaxBatchKeys keys are in hand or the ring is
// empty — and flushes it. It reports false, having done nothing, when there
// was no request to take. draining marks the shutdown drain's batches.
func (s *Server) flushNext(g int, q *gpuQueue, sc *workerScratch, draining bool) bool {
	first := q.pop()
	if first == nil {
		return false
	}
	dequeued := time.Now()
	batch := append(sc.reqs[:0], first)
	pending := len(first.keys)
	reason := flight.FillFull
	for pending < s.cfg.MaxBatchKeys {
		r := q.pop()
		if r == nil {
			reason = flight.FillIdle
			break
		}
		batch = append(batch, r)
		pending += len(r.keys)
	}
	if draining {
		reason = flight.FillDrain
	}
	sc.reqs = batch
	sc.rec = flight.Batch{GPU: g, Reason: reason, Requests: len(batch), RequestedKeys: pending,
		QueueDepth: s.observeQueue(q), ShedTotal: s.shed[g].Load(),
		QueueWaitSeconds: dequeued.Sub(first.enqueued).Seconds()}
	s.flush(g, batch, sc, dequeued)
	return true
}

// observeQueue publishes the admission-side backpressure gauges at batch
// formation — the last and the peak queue depth — and returns the
// depth, which the batch record carries (with the shed count) so saturation
// shows on the overload track and in the flight rings.
func (s *Server) observeQueue(q *gpuQueue) int {
	depth := q.depth()
	s.met.queueDepth.Set(float64(depth))
	for peak := s.peakDepth.Load(); int64(depth) > peak; peak = s.peakDepth.Load() {
		if s.peakDepth.CompareAndSwap(peak, int64(depth)) {
			s.met.queueDepthPeak.Set(float64(depth))
		}
	}
	return depth
}

// flush coalesces the batch's keys, runs one extraction, and fans the
// per-request results back out. Everything it needs lives in the worker's
// scratch; the only steady-state allocation is the batch-sized Rows block
// handed to the callers (see Result.Rows). What it observes goes to
// lock-free telemetry shards and, once, into sc.rec — the one record of this
// batch, written to the worker's ring once the replies are ready and before
// they are sent, so a caller holding its Result finds its batch in Trace.
func (s *Server) flush(g int, batch []*request, sc *workerScratch, dequeued time.Time) {
	rec := &sc.rec
	uniq := sc.dedupe(batch)
	rec.UniqueKeys = len(uniq)
	var rows []byte
	if s.functional {
		rows = grow(&sc.rows, len(uniq)*s.entryBytes)
	}
	extractKeys, staleServed := s.consumeStaged(g, sc, uniq, rows)

	// One simulated extraction for the whole coalesced batch. The result
	// aliases sc.core, so what the record needs of it is read before the
	// gather below reuses the scratch.
	sc.batch.Keys[g] = extractKeys
	extractStart := time.Now()
	res, err := s.sys.ExtractBatch(&sc.batch, sc.core)
	sc.batch.Keys[g] = nil
	if sc.batch.Staged != nil {
		sc.batch.Staged[g] = nil
	}
	if err != nil {
		s.fail(g, batch, err)
		return
	}
	extractEnd := time.Now()
	rec.SimSeconds = res.Time
	copy(rec.TierBytes[:], res.TierBytes[g])
	copy(rec.TierSeconds[:], res.TierSeconds[g])

	// Feed the §7.2 hotness sampler with this batch's unique keys; shard g
	// belongs to this worker, so the observation is race-free.
	if s.sampler != nil {
		s.sampler.Shard(g).Observe(uniq)
	}
	if s.ctrl != nil {
		s.ctrl.BatchObserved()
	}

	gatherEnd := extractEnd
	if s.functional {
		if err := s.gather(g, sc, uniq, extractKeys, rows); err != nil {
			s.fail(g, batch, err)
			return
		}
		gatherEnd = time.Now()
	}
	// Counted before the replies go out: a caller holding its Result finds
	// itself in serve_*_total (and its batch in Trace, below), and requests +
	// rejected + failed equals what admission was asked to take at every
	// instant a caller can observe.
	m := s.met
	m.requests.Add(g, int64(len(batch)))
	m.batches.Add(g, 1)
	m.requestedKeys.Add(g, int64(rec.RequestedKeys))
	m.uniqueKeys.Add(g, int64(len(uniq)))
	m.simSeconds.Add(g, rec.SimSeconds)
	m.fill[rec.Reason].Add(g, 1)
	m.queueWait.Observe(g, rec.QueueWaitSeconds)
	m.fillPrefetchHit.Add(g, int64(rec.PrefetchHits))
	m.fillDemandMiss.Add(g, int64(len(uniq)-rec.PrefetchHits))
	if s.staging != nil {
		if staleServed > 0 {
			m.staleServedKeys.Add(g, int64(staleServed))
		}
		m.staleness.Set(float64(rec.StaleBatches))
		// Advance GPU g's batch clock: the staleness window of every staged
		// row is measured against it.
		s.servedKeys[g].Add(int64(rec.RequestedKeys))
	}
	s.fanOut(batch, sc, rows)

	ready := time.Now()
	rec.CoalesceSeconds = extractStart.Sub(dequeued).Seconds()
	rec.ExtractSeconds = extractEnd.Sub(extractStart).Seconds()
	rec.GatherSeconds = gatherEnd.Sub(extractEnd).Seconds()
	rec.ReplySeconds = ready.Sub(gatherEnd).Seconds()
	rec.UnixNanos = ready.UnixNano()
	sc.ring.Record(rec)
	s.send(g, batch, sc)
}

// dedupe coalesces the batch's keys with the generation-stamped
// open-addressing table, remembering each unique key's row index, and
// returns the unique keys in first-seen order.
func (sc *workerScratch) dedupe(batch []*request) []int64 {
	sc.dedup.Reset(sc.rec.RequestedKeys)
	uniq := sc.uniq[:0]
	for _, r := range batch {
		for _, k := range r.keys {
			if _, fresh := sc.dedup.Add(k); fresh {
				uniq = append(uniq, k)
			}
		}
	}
	sc.uniq = uniq
	return uniq
}

// consumeStaged resolves staged prefetch hits before the extraction
// (pipeline on only): hit rows are copied straight out of the staging arena
// under one read lock, the residual demand keys — the return value — ride
// the extraction as usual, and the staged keys are charged as local reads
// via the staged-source plan so the batch's modelled time reflects the
// overlap win. The hit count and the maximum staleness go into the record.
func (s *Server) consumeStaged(g int, sc *workerScratch, uniq []int64, rows []byte) (demand []int64, staleServed int) {
	if s.staging == nil {
		return uniq, 0
	}
	hitMask := grow(&sc.hit, len(uniq))
	rec := &sc.rec
	_, version := s.sys.PlacementVersion()
	rec.PrefetchHits, staleServed, rec.StaleBatches = s.staging[g].Consume(
		uniq, s.batchClock(g), int64(s.cfg.StaleBatches), version, rows, hitMask)
	if rec.PrefetchHits == 0 {
		return uniq, staleServed
	}
	demand = sc.demand[:0]
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
	return demand, staleServed
}

// gather is the one functional gather into the worker's row buffer. With
// staged hits it covers only the residual demand keys — their rows land in a
// side buffer and are scattered back into the hit-interleaved positions; the
// staged rows were already copied by Consume.
func (s *Server) gather(g int, sc *workerScratch, uniq, demand []int64, rows []byte) error {
	if sc.rec.PrefetchHits == 0 {
		return s.sys.Lookup(g, uniq, rows, sc.core)
	}
	if len(demand) == 0 {
		return nil
	}
	dr := grow(&sc.demandRows, len(demand)*s.entryBytes)
	if err := s.sys.Lookup(g, demand, dr, sc.core); err != nil {
		return err
	}
	for j, i := range sc.demandIdx {
		copy(rows[int(i)*s.entryBytes:(int(i)+1)*s.entryBytes], dr[j*s.entryBytes:(j+1)*s.entryBytes])
	}
	return nil
}

// fanOut readies every request's Result in sc.replies, copying its rows out
// of the batch's unique rows into one caller-owned allocation for the whole
// batch, carved into full-capacity-clipped per-request sub-slices.
func (s *Server) fanOut(batch []*request, sc *workerScratch, rows []byte) {
	replies := grow(&sc.replies, len(batch))
	var outBuf []byte
	if rows != nil {
		outBuf = make([]byte, sc.rec.RequestedKeys*s.entryBytes)
	}
	off := 0
	for n, r := range batch {
		out := Result{SimSeconds: sc.rec.SimSeconds, BatchKeys: sc.rec.UniqueKeys}
		if rows != nil {
			end := off + len(r.keys)*s.entryBytes
			out.Rows = outBuf[off:end:end]
			for i, k := range r.keys {
				j, _ := sc.dedup.Index(k)
				copy(out.Rows[i*s.entryBytes:], rows[j*s.entryBytes:(j+1)*s.entryBytes])
			}
			off = end
		}
		replies[n] = out
	}
}

// send hands each request the Result fanOut readied, dropping the worker's
// reference to its rows.
func (s *Server) send(g int, batch []*request, sc *workerScratch) {
	for n, r := range batch {
		r.out <- sc.replies[n]
		sc.replies[n] = Result{}
		s.met.latency.Observe(g, time.Since(r.enqueued).Seconds())
	}
}

// fail answers every request of a batch whose extraction or gather errored,
// and counts them: requests + rejected + failed is every request admission
// was asked to take.
func (s *Server) fail(g int, batch []*request, err error) {
	s.met.failed.Add(g, int64(len(batch))) // before the replies, as in flush
	for _, r := range batch {
		r.out <- Result{Err: err}
	}
}
