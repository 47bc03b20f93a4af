package serve

import (
	"sync"
	"time"

	"ugache/internal/cache"
	"ugache/internal/core"
	"ugache/internal/extract"
	"ugache/internal/flight"
	"ugache/internal/hashtable"
)

// prefetchWindow is one announced lookahead window: a copy of the keys a
// client expects to request L batches from now. Windows are pooled so the
// announce path allocates only on depth growth.
type prefetchWindow struct {
	keys []int64
}

// windowPoolMult bounds the key capacity a recycled window may pin in the
// pool, as a multiple of MaxBatchKeys. A single oversized announce would
// otherwise keep its whole backing array alive for the server's lifetime —
// sync.Pool has no size discipline of its own.
const windowPoolMult = 4

// putWindow recycles one window, dropping it (for the GC) when its capacity
// exceeds the pool's retention bound.
func (s *Server) putWindow(w *prefetchWindow) {
	if !windowPoolable(cap(w.keys), s.cfg.MaxBatchKeys) {
		return
	}
	w.keys = w.keys[:0]
	s.windowPool.Put(w)
}

// windowPoolable reports whether a window with the given key capacity may
// return to the announce pool.
func windowPoolable(capKeys, maxBatchKeys int) bool {
	return capKeys <= windowPoolMult*maxBatchKeys
}

// pendingGate tracks one GPU's in-flight announced windows and lets
// WaitPrefetch block on their completion through a condition variable —
// the prefetch worker broadcasts when the count returns to zero, so waiters
// sleep instead of burning a core in a sleep-poll loop.
type pendingGate struct {
	mu   sync.Mutex
	cond *sync.Cond
	n    int64
}

func newPendingGate() *pendingGate {
	g := &pendingGate{}
	g.cond = sync.NewCond(&g.mu)
	return g
}

// add moves the in-flight count by d, waking waiters when it reaches zero.
func (g *pendingGate) add(d int64) {
	g.mu.Lock()
	g.n += d
	if g.n <= 0 {
		g.cond.Broadcast()
	}
	g.mu.Unlock()
}

// wait blocks until the in-flight count is zero.
func (g *pendingGate) wait() {
	g.mu.Lock()
	for g.n > 0 {
		g.cond.Wait()
	}
	g.mu.Unlock()
}

// batchClock is GPU g's staleness clock: how many batches' worth of keys
// (Config.MaxBatchKeys each) its flushes have answered so far. Counting keys
// rather than flushes keeps a window of S batches the same amount of traffic
// whether it left in full batches or one request per flush.
func (s *Server) batchClock(g int) int64 {
	return s.servedKeys[g].Load() / int64(s.cfg.MaxBatchKeys)
}

// Prefetch announces the keys of an upcoming batch on GPU gpu so the
// prefetch worker can stage their would-be misses ahead of the batch's
// flush (the BagPipe-style lookahead oracle: a DLR/GNN input pipeline knows
// its next several batches while compute runs). The keys are copied; the
// caller keeps ownership. The call never blocks: when the prefetch queue is
// full the window is dropped (and counted) — prefetching is advisory, the
// batch will simply pay its demand misses. Returns whether the window was
// accepted. A server built with Config.Lookahead == 0 rejects all windows.
func (s *Server) Prefetch(gpu int, keys []int64) bool {
	if s.prefetchQ == nil || gpu < 0 || gpu >= len(s.prefetchQ) || len(keys) == 0 {
		return false
	}
	s.closeMu.RLock()
	defer s.closeMu.RUnlock()
	if s.closed {
		return false
	}
	w := s.windowPool.Get().(*prefetchWindow)
	w.keys = append(w.keys[:0], keys...)
	s.prefetchGate[gpu].add(1)
	select {
	case s.prefetchQ[gpu] <- w:
		return true
	default:
		s.prefetchGate[gpu].add(-1)
		s.putWindow(w)
		s.met.prefetchDropped.Add(gpu, 1)
		return false
	}
}

// WaitPrefetch blocks until GPU gpu's prefetch worker has fully staged (or
// dropped) every window announced so far — the deterministic
// perfect-overlap sync point the bench and tests use. Serving itself never
// calls this: a flush consumes whatever happens to be staged. Waiters sleep
// on the gate's condition variable until the worker drains the count to
// zero; there is no polling.
func (s *Server) WaitPrefetch(gpu int) {
	if s.prefetchGate == nil || gpu < 0 || gpu >= len(s.prefetchGate) {
		return
	}
	s.prefetchGate[gpu].wait()
}

// StagingArena exposes GPU gpu's staging arena (nil when lookahead is
// disabled) for tests and diagnostics.
func (s *Server) StagingArena(gpu int) *cache.StagingArena {
	if s.staging == nil || gpu < 0 || gpu >= len(s.staging) {
		return nil
	}
	return s.staging[gpu]
}

// prefetchScratch is one prefetch worker's reusable state, mirroring
// workerScratch: its own dedup table, fetch list, single-GPU extraction
// batch, gathered-row buffer and core scratch, so a steady-state window
// costs no allocation beyond buffer growth.
type prefetchScratch struct {
	dedup *hashtable.Dedup
	fetch []int64
	batch extract.Batch
	rows  []byte
	core  *core.Scratch
}

func (s *Server) newPrefetchScratch() *prefetchScratch {
	return &prefetchScratch{
		dedup: hashtable.NewDedup(s.cfg.MaxBatchKeys),
		batch: extract.Batch{Keys: make([][]int64, s.sys.P.N)},
		core:  core.NewScratch(),
	}
}

// prefetchWorker is GPU g's staging loop: dequeue an announced window,
// filter it down to keys worth moving, extract them off the critical path,
// and commit the rows into the staging arena. Runs only when
// Config.Lookahead > 0.
func (s *Server) prefetchWorker(g int) {
	defer s.wg.Done()
	q := s.prefetchQ[g]
	sc := s.newPrefetchScratch()
	for {
		select {
		case w := <-q:
			s.prefetchWindow(g, w, sc)
		case <-s.done:
			// Shutdown: discard what is still queued — prefetching is
			// advisory and nobody will flush against it anymore. Close's
			// write lock has excluded every Prefetch caller, so an empty
			// poll means empty for good.
			for {
				select {
				case w := <-q:
					s.prefetchGate[g].add(-1)
					s.putWindow(w)
				default:
					return
				}
			}
		}
	}
}

// prefetchWindow stages one announced window. Keys already resolving to the
// local tier under the current placement, keys already staged and still
// servable, and duplicate/out-of-range keys are filtered out; the remainder
// is extracted (charged to the prefetch track, not serving latency) and
// committed under the placement version the filter read. The filter takes
// the placement and its version from one load (core.System.PlacementVersion),
// so a refresh cannot fall between them; a refresh after it only makes the
// commit's version older than the rows, which staleness treats as stale, and
// row bytes never change.
func (s *Server) prefetchWindow(g int, w *prefetchWindow, sc *prefetchScratch) {
	defer func() {
		s.prefetchGate[g].add(-1)
		s.putWindow(w)
	}()
	start := time.Now()
	arena := s.staging[g]
	pl, version := s.sys.PlacementVersion()
	now := s.batchClock(g)
	stale := int64(s.cfg.StaleBatches)
	n := pl.NumEntries()
	announced := len(w.keys)

	// Filter: one generation-stamped dedup pass per window, then drop keys
	// the flush would already serve locally (placement-local) or that are
	// already staged and servable.
	sc.dedup.Reset(announced)
	fetch := sc.fetch[:0]
	for _, k := range w.keys {
		if k < 0 || k >= n {
			continue
		}
		if _, fresh := sc.dedup.Add(k); !fresh {
			continue
		}
		if int(pl.SourceOf(g, k)) == g {
			continue
		}
		if arena.Resident(k, now, stale, version) {
			continue
		}
		fetch = append(fetch, k)
	}
	sc.fetch = fetch
	filtered := time.Now()
	extracted := filtered

	simTime := 0.0
	if len(fetch) > 0 {
		// The prefetch extraction models the real interconnect cost of the
		// early move; it lands on the prefetch metrics/track, not on any
		// request's SimSeconds — that is the whole point of the overlap.
		sc.batch.Keys[g] = fetch
		res, err := s.sys.ExtractBatch(&sc.batch, sc.core)
		sc.batch.Keys[g] = nil
		if err != nil {
			s.met.prefetchErrors.Add(g, 1)
			return
		}
		simTime = res.Time
		extracted = time.Now()
		var rows []byte
		if s.functional {
			rows = grow(&sc.rows, len(fetch)*s.entryBytes)
			if err := s.sys.Lookup(g, fetch, rows, sc.core); err != nil {
				s.met.prefetchErrors.Add(g, 1)
				return
			}
		}
		if err := arena.Commit(fetch, rows, version, now); err != nil {
			s.met.prefetchErrors.Add(g, 1)
			return
		}
	}

	m := s.met
	m.prefetchWindows.Add(g, 1)
	m.prefetchStagedKeys.Add(g, int64(len(fetch)))
	m.prefetchSimSeconds.Add(g, simTime)

	// Prefetch workers run concurrently with GPU g's serving worker, so they
	// must not write its single-producer ring; staged windows are off the
	// critical path and ride the mutex-guarded control ring, from which a
	// the recorder's trace draws the window and its three stages.
	end := time.Now()
	e := flight.Event{Kind: flight.KindPrefetch, GPU: int32(g), UnixNanos: end.UnixNano()}
	e.V[flight.PrefetchAnnouncedKeys] = float64(announced)
	e.V[flight.PrefetchFetchedKeys] = float64(len(fetch))
	e.V[flight.PrefetchSimSeconds] = simTime
	e.V[flight.PrefetchFilterSeconds] = filtered.Sub(start).Seconds()
	e.V[flight.PrefetchExtractSeconds] = extracted.Sub(filtered).Seconds()
	e.V[flight.PrefetchStageSeconds] = end.Sub(extracted).Seconds()
	s.fl.RecordControl(&e)
}
