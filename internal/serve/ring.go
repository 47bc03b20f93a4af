package serve

import (
	"sync/atomic"
)

// mpscRing is a bounded multi-producer single-consumer request queue — the
// admission core that replaced the raw per-GPU channels. Producers (Handle
// callers) reserve slots with a CAS on the enqueue ticket and never block: a
// full ring fails the push immediately, which is what turns overload into an
// explicit shed decision instead of an unbounded caller park (DESIGN.md
// §6.5). The single consumer is GPU g's worker goroutine.
//
// The layout is the classic sequence-stamped bounded queue (Vyukov): each
// cell carries a sequence number that encodes whether it is free for the
// producer lap or holds a value for the consumer lap, so push and pop
// synchronize cell-by-cell through one atomic each and neither side ever
// takes a lock.
type mpscRing struct {
	mask  uint64
	cells []ringCell
	enq   atomic.Uint64 // next producer ticket
	deq   atomic.Uint64 // consumer position (written by the worker only)
}

// ringCell is one slot. seq == index means free for the producer whose
// ticket is index; seq == index+1 means the value is visible to the
// consumer; seq == index+capacity means consumed and free for the next lap.
type ringCell struct {
	seq atomic.Uint64
	req *request
	// Pad to a cache line so neighbouring cells do not false-share under
	// producer contention (16 bytes of payload above).
	_ [48]byte
}

// newRing builds a ring with capacity rounded up to a power of two (minimum
// 2, so mask arithmetic always works).
func newRing(capacity int) *mpscRing {
	c := uint64(2)
	for int(c) < capacity {
		c <<= 1
	}
	r := &mpscRing{mask: c - 1, cells: make([]ringCell, c)}
	for i := range r.cells {
		r.cells[i].seq.Store(uint64(i))
	}
	return r
}

// cap returns the ring's (rounded) capacity.
func (r *mpscRing) capacity() int { return len(r.cells) }

// push attempts to enqueue without blocking. Returns false when the ring is
// full, which the caller turns into a shed.
func (r *mpscRing) push(req *request) bool {
	pos := r.enq.Load()
	for {
		cell := &r.cells[pos&r.mask]
		seq := cell.seq.Load()
		switch {
		case seq == pos:
			if r.enq.CompareAndSwap(pos, pos+1) {
				cell.req = req
				cell.seq.Store(pos + 1)
				return true
			}
			pos = r.enq.Load()
		case seq < pos:
			// The cell still holds an unconsumed value from the previous
			// lap: the ring is full.
			return false
		default:
			// Another producer claimed this ticket; chase the new tail.
			pos = r.enq.Load()
		}
	}
}

// pop dequeues one request, or nil when the ring is empty. Must only be
// called by the single consumer goroutine.
func (r *mpscRing) pop() *request {
	pos := r.deq.Load()
	cell := &r.cells[pos&r.mask]
	if cell.seq.Load() != pos+1 {
		return nil
	}
	req := cell.req
	cell.req = nil
	cell.seq.Store(pos + uint64(len(r.cells)))
	r.deq.Store(pos + 1)
	return req
}

// depth is the approximate number of queued requests (exact when quiescent;
// a racy-but-monotonic estimate while producers are active — fine for
// gauges and overload counters).
func (r *mpscRing) depth() int {
	d := int64(r.enq.Load()) - int64(r.deq.Load())
	if d < 0 {
		return 0
	}
	return int(d)
}

// gpuQueue is one GPU's admission state: the ring plus the worker-wakeup
// channel. The channel is a buffered(1) token slot — a producer's failed
// non-blocking send means a token is already pending, and the worker
// re-checks the ring after every token, so wakeups are never lost (see the
// worker loop).
type gpuQueue struct {
	*mpscRing
	notify chan struct{}
}

func newGPUQueue(depth int) *gpuQueue {
	return &gpuQueue{mpscRing: newRing(depth), notify: make(chan struct{}, 1)}
}

// wake posts the worker-wakeup token (no-op if one is already pending).
func (q *gpuQueue) wake() {
	select {
	case q.notify <- struct{}{}:
	default:
	}
}
