package flight

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// slot is one ring entry, stored entirely in atomic words so a writer and
// any number of concurrent readers never perform a data race. The sn word
// is a seqlock: the writer bumps it to odd before touching the payload and
// to even after; a reader that observes an odd value, or a value that moved
// while it copied, discards the slot instead of surfacing a torn batch.
type slot struct {
	sn atomic.Uint64
	w  [batchWords]atomic.Uint64
}

// Ring is one serving worker's fixed-capacity batch ring. Record is
// single-producer (the worker that claimed the ring) and lock-free: a fixed
// number of atomic stores, no allocation, no branches beyond the seqlock
// protocol. Readers snapshot concurrently without stopping the writer — an
// overwritten or in-flight slot is simply skipped.
type Ring struct {
	slots []slot
	mask  uint64
	head  atomic.Uint64 // total batches ever written; next slot = head & mask
	track int32         // the ring's index in its Recorder: its tid on the batch tracks
	name  string        // its worker's name on those tracks, "gpu 0"; set by Claim
}

// newRing returns a ring holding the last depth batches (rounded up to a
// power of two, min 8).
func newRing(depth int) *Ring {
	cap := 8
	for cap < depth {
		cap <<= 1
	}
	return &Ring{slots: make([]slot, cap), mask: uint64(cap - 1)}
}

// Record numbers the batch (b.Seq becomes its 1-based position in this ring)
// and copies it in, overwriting the oldest once full. Single producer per
// ring; concurrent readers are safe.
func (r *Ring) Record(b *Batch) {
	h := r.head.Load()
	b.Seq = int64(h) + 1
	s := &r.slots[h&r.mask]
	sn := s.sn.Load()
	s.sn.Store(sn + 1) // odd: write in progress
	b.store(&s.w)
	s.sn.Store(sn + 2) // even: committed
	r.head.Store(h + 1)
}

// Recorded returns the total number of batches ever written.
func (r *Ring) Recorded() uint64 { return r.head.Load() }

// Snapshot appends the ring's current batches to dst, oldest first, and
// returns it. Runs concurrently with Record: slots being overwritten during
// the copy are dropped rather than surfaced torn, so a snapshot under a hot
// writer may hold slightly fewer than its capacity.
func (r *Ring) Snapshot(dst []Batch) []Batch {
	h := r.head.Load()
	for i := h - min(h, uint64(len(r.slots))); i < h; i++ {
		s := &r.slots[i&r.mask]
		sn := s.sn.Load()
		if sn%2 == 1 {
			continue // mid-write
		}
		var b Batch
		b.load(&s.w)
		if s.sn.Load() == sn { // else torn: lapped by the writer
			dst = append(dst, b)
		}
	}
	return dst
}

// eventRing is the control ring: a fixed-capacity ring of Events under a
// short mutex, for writers off the batch path. The refresh, drift, prefetch
// and partial-lookup writers share it, and every reader is on the slow path.
type eventRing struct {
	mu  sync.Mutex
	buf []Event // circular; the next write goes to buf[n % len]
	n   uint64  // events ever written
}

func newEventRing(depth int) *eventRing { return &eventRing{buf: make([]Event, depth)} }

// Record copies one event in, overwriting the oldest once the ring is full.
func (r *eventRing) record(e *Event) {
	r.mu.Lock()
	r.buf[r.n%uint64(len(r.buf))] = *e
	r.n++
	r.mu.Unlock()
}

// events returns the ring's current events among the first end ever
// recorded, oldest first.
func (r *eventRing) events(end uint64) []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := uint64(len(r.buf))
	start, end := r.n-min(r.n, n), min(end, r.n)
	out := make([]Event, 0, end-min(start, end))
	for i := start; i < end; i++ {
		out = append(out, r.buf[i%n])
	}
	return out
}

// recorded returns the number of events ever written.
func (r *eventRing) recorded() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}

// Recorder owns one batch ring per serving worker and a shared control ring
// (refresh / drift / prefetch / partial-lookup events). Every ring holds the
// last depth records and nothing grows. It is the one owner of the Chrome
// trace (Draw, WriteTrace), whose zero is the recorder's creation.
type Recorder struct {
	rings   []*Ring
	ctrl    *eventRing
	created int64 // unix nanos

	mu      sync.Mutex
	claimed int // rings handed out, rings[:claimed]
}

// DefaultDepth is the per-ring depth used when NewRecorder is given a
// non-positive depth.
const DefaultDepth = 4096

// NewRecorder creates a recorder with one ring per worker (values < 1 are
// raised to 1) plus the control ring, each holding the last depth records.
// Size workers to every serving worker that will record into it: servers
// sharing a recorder each claim their own rings.
func NewRecorder(workers, depth int) *Recorder {
	if workers < 1 {
		workers = 1
	}
	if depth < 1 {
		depth = DefaultDepth
	}
	r := &Recorder{rings: make([]*Ring, workers), created: time.Now().UnixNano()}
	for i := range r.rings {
		r.rings[i] = newRing(depth)
		r.rings[i].track = int32(i)
	}
	r.ctrl = newEventRing(r.Depth())
	return r
}

// Depth returns the records each ring holds: the depth NewRecorder was
// given, or DefaultDepth for a non-positive one, rounded up to a power of
// two (at least 8).
func (r *Recorder) Depth() int { return len(r.rings[0].slots) }

// Workers returns the number of per-worker rings.
func (r *Recorder) Workers() int { return len(r.rings) }

// Claim hands one server n unclaimed worker rings at once, ring g for its
// GPU g, or nil, taking none, when fewer than n are left. A ring has exactly
// one producer for the recorder's lifetime, so a worker keeps its ring next
// to its scratch. The trace names the tracks of ring g after its GPU,
// "gpu g", and past the first server's after its node too, "node k gpu g":
// servers sharing a recorder are the nodes of one cluster.
func (r *Recorder) Claim(n int) []*Ring {
	r.mu.Lock()
	defer r.mu.Unlock()
	if n < 1 || r.claimed+n > len(r.rings) {
		return nil
	}
	rings := r.rings[r.claimed : r.claimed+n : r.claimed+n]
	for g, rg := range rings {
		rg.name = fmt.Sprintf("gpu %d", g)
		if node := r.claimed / n; node > 0 {
			rg.name = fmt.Sprintf("node %d %s", node, rg.name)
		}
	}
	r.claimed += n
	return rings
}

// Trace returns the read-side view over every worker ring.
func (r *Recorder) Trace() *Trace { return NewTrace(r.rings) }

// RecordControl records one control-plane event (refresh, drift, prefetch,
// partial lookup), overwriting the oldest once the control ring is full.
func (r *Recorder) RecordControl(e *Event) { r.ctrl.record(e) }

// Events returns the control ring's current events, oldest first.
func (r *Recorder) Events() []Event { return r.ctrl.events(math.MaxUint64) }

// Recorded sums the records ever written across all rings.
func (r *Recorder) Recorded() uint64 {
	total := r.ctrl.recorded()
	for _, rg := range r.rings {
		total += rg.Recorded()
	}
	return total
}

// Exemplar references one batch record: its (Track, Seq) pair resolves to
// the batch's span tree in a timeline export (the root "batch" span on serve
// tid Track carries a matching seq arg), linking the flight records, the
// metrics and the timeline. GPU is the batch's GPU on its node.
type Exemplar struct {
	Track          int32   `json:"track"`
	GPU            int32   `json:"gpu"`
	Seq            int64   `json:"seq"`
	LatencySeconds float64 `json:"latency_seconds"`
	UnixNanos      int64   `json:"unix_nanos"`
}

// mark returns how many records each worker ring, then the control ring has
// taken so far.
func (r *Recorder) mark() []uint64 {
	var m []uint64
	for _, rg := range r.rings {
		m = append(m, rg.Recorded())
	}
	return append(m, r.ctrl.recorded())
}

// exemplar returns the slowest batch the rings hold, or nil when there is
// none: a bundle manifest's exemplar. A non-nil mark (see mark) bounds each
// ring to the batches recorded before it was taken.
func (r *Recorder) exemplar(mark []uint64) *Exemplar {
	var best *Exemplar
	var buf []Batch
	for i, rg := range r.rings {
		buf = rg.Snapshot(buf[:0])
		for j := range buf {
			b := &buf[j]
			if mark != nil && uint64(b.Seq) > mark[i] {
				continue
			}
			if lat := b.LatencySeconds(); best == nil || lat > best.LatencySeconds {
				best = &Exemplar{Track: rg.track, GPU: int32(b.GPU), Seq: b.Seq, LatencySeconds: lat, UnixNanos: b.UnixNanos}
			}
		}
	}
	return best
}

// lines renders every held record — batches and control events, the latter
// only those recorded before mark when it is non-nil — as one JSON object
// each, merged oldest first (ties: batches before events).
func (r *Recorder) lines(mark []uint64) [][]byte {
	batches := r.Trace().Snapshot(nil)
	end := uint64(math.MaxUint64)
	if mark != nil {
		end = mark[len(r.rings)]
	}
	events := r.ctrl.events(end)
	sort.SliceStable(events, func(i, j int) bool { return events[i].UnixNanos < events[j].UnixNanos })
	out := make([][]byte, len(batches)+len(events))
	for k := len(out) - 1; k >= 0; k-- { // newest first, filling from the back
		nb, ne := len(batches), len(events)
		if nb == 0 || (ne > 0 && events[ne-1].UnixNanos >= batches[nb-1].UnixNanos) {
			out[k], events = events[ne-1].appendJSON(nil), events[:ne-1]
		} else {
			out[k], batches = batches[nb-1].appendJSON(nil), batches[:nb-1]
		}
	}
	return out
}

// writeLines writes JSON objects one per line.
func writeLines(w io.Writer, lines [][]byte) error {
	for _, l := range lines {
		if _, err := w.Write(append(l, '\n')); err != nil {
			return err
		}
	}
	return nil
}
