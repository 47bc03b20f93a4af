package telemetry

import (
	"encoding/json"
	"io"
	"sync"
)

// FillReason says why a coalesced batch was flushed.
type FillReason uint8

const (
	// FillFull: the keys in hand reached MaxBatchKeys.
	FillFull FillReason = iota
	// FillIdle: the queue ran empty, so the batch left with what it had —
	// at low load a single request.
	FillIdle
	// FillDrain: the server was closing and drained the queue.
	FillDrain
)

func (f FillReason) String() string {
	switch f {
	case FillFull:
		return "full"
	case FillIdle:
		return "idle"
	default:
		return "drain"
	}
}

// MarshalJSON renders the reason as its string form.
func (f FillReason) MarshalJSON() ([]byte, error) {
	return json.Marshal(f.String())
}

// BatchTrace is one coalesced batch's trace record: how the batch formed
// (queue wait, coalesce size, dedup ratio, flush trigger) and what the
// extraction model said it cost, split by source tier (§5.3/§6.2 — the
// local/remote/host breakdown is the quantity UGache's solver optimizes).
// The struct is flat (no pointers, no slices) so ring-buffer recording is a
// plain copy with zero allocations.
type BatchTrace struct {
	// Seq numbers batches per GPU, starting at 1.
	Seq int64 `json:"seq"`
	// GPU is the destination GPU the batch was extracted for.
	GPU int `json:"gpu"`
	// UnixNanos is the flush wall-clock time.
	UnixNanos int64 `json:"unix_nanos"`
	// QueueWaitSeconds is how long the first request of the batch sat in
	// the queue before its worker picked it up.
	QueueWaitSeconds float64 `json:"queue_wait_seconds"`
	// Requests is the number of client requests coalesced into the batch.
	Requests int `json:"requests"`
	// RequestedKeys counts keys before dedup, UniqueKeys after.
	RequestedKeys int `json:"requested_keys"`
	UniqueKeys    int `json:"unique_keys"`
	// Reason is the flush trigger (full / idle / drain).
	Reason FillReason `json:"reason"`
	// SimSeconds is the modelled extraction time of the batch.
	SimSeconds float64 `json:"sim_seconds"`
	// PrefetchHits is how many unique keys were served from the lookahead
	// staging arena instead of the placement's source tier.
	PrefetchHits int `json:"prefetch_hits,omitempty"`
	// StaleBatches is the maximum bounded-staleness (in batches) among the
	// staged rows this batch consumed — non-zero only when rows committed
	// under an outgoing placement version were served inside the staleness
	// window.
	StaleBatches int64 `json:"stale_batches,omitempty"`
	// Per-tier bytes moved, from the extractor's source-volume matrix. The
	// network tier is the cluster's remote-machine class; zero off-cluster.
	LocalBytes   float64 `json:"local_bytes"`
	RemoteBytes  float64 `json:"remote_bytes"`
	HostBytes    float64 `json:"host_bytes"`
	NetworkBytes float64 `json:"network_bytes,omitempty"`
	// Per-tier modelled seconds (§6.2 serial estimate: bytes x time-per-
	// byte; tiers overlap in the real schedule, so the parts may sum to
	// more than SimSeconds).
	LocalSeconds   float64 `json:"local_seconds"`
	RemoteSeconds  float64 `json:"remote_seconds"`
	HostSeconds    float64 `json:"host_seconds"`
	NetworkSeconds float64 `json:"network_seconds,omitempty"`
}

// DedupRatio is requested/unique keys (1.0 = no sharing across requests).
func (t *BatchTrace) DedupRatio() float64 {
	if t.UniqueKeys == 0 {
		return 0
	}
	return float64(t.RequestedKeys) / float64(t.UniqueKeys)
}

// TraceRing keeps the last N batch traces in a preallocated ring. Record
// copies the caller's struct into the next slot under a short mutex — no
// allocation, and the lock is per recorded batch (sampled), not per
// request, so it does not serialize the workers' hot path.
type TraceRing struct {
	mu   sync.Mutex
	buf  []BatchTrace
	next int
	n    int
}

// NewTraceRing returns a ring holding the last depth records (min 1).
func NewTraceRing(depth int) *TraceRing {
	if depth < 1 {
		depth = 1
	}
	return &TraceRing{buf: make([]BatchTrace, depth)}
}

// Depth returns the ring capacity.
func (r *TraceRing) Depth() int { return len(r.buf) }

// Record copies one trace into the ring.
func (r *TraceRing) Record(t *BatchTrace) {
	r.mu.Lock()
	r.buf[r.next] = *t
	r.next = (r.next + 1) % len(r.buf)
	if r.n < len(r.buf) {
		r.n++
	}
	r.mu.Unlock()
}

// Len returns the number of records currently held.
func (r *TraceRing) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}

// Snapshot appends the held records to dst, oldest first, and returns it.
func (r *TraceRing) Snapshot(dst []BatchTrace) []BatchTrace {
	r.mu.Lock()
	defer r.mu.Unlock()
	start := (r.next - r.n + len(r.buf)) % len(r.buf)
	for i := 0; i < r.n; i++ {
		dst = append(dst, r.buf[(start+i)%len(r.buf)])
	}
	return dst
}

// WriteJSON renders the ring's records (oldest first) as a JSON array with
// a dedup_ratio field added per record.
func (r *TraceRing) WriteJSON(w io.Writer) error {
	traces := r.Snapshot(nil)
	type jsonTrace struct {
		BatchTrace
		DedupRatio float64 `json:"dedup_ratio"`
	}
	out := make([]jsonTrace, len(traces))
	for i := range traces {
		out[i] = jsonTrace{traces[i], traces[i].DedupRatio()}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
