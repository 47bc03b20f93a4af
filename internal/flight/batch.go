package flight

import (
	"encoding/json"
	"io"
	"math"
	"sort"
	"sync/atomic"
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
	// Values past FillDrain read "drain" too, rather than indexing off the end.
	return [...]string{FillFull: "full", FillIdle: "idle", FillDrain: "drain"}[min(f, FillDrain)]
}

// MarshalJSON renders the reason as its string form.
func (f FillReason) MarshalJSON() ([]byte, error) {
	return json.Marshal(f.String())
}

// Batch is the one record a flushed batch leaves behind: how it formed
// (queue state, coalesce size, dedup, flush trigger), where its wall time
// went stage by stage, and what the extraction model said it cost, split by
// source tier (§5.3/§6.2 — the local/remote/host breakdown is the quantity
// UGache's solver optimizes). The serving worker writes it once, into its own
// ring; /debug/trace, the flight JSONL, the bundle exemplar and the
// Chrome-trace span tree are all read-side renderings of it. The struct is
// flat (no pointers, no slices) and packs into batchWords ring words. The
// JSON tags are the /debug/trace schema.
type Batch struct {
	// Seq numbers the batches of one worker ring from 1; Ring.Record
	// assigns it, so it is also the record's position in its ring.
	Seq int64 `json:"seq"`
	// GPU is the destination GPU the batch was extracted for.
	GPU int `json:"gpu"`
	// UnixNanos is the wall-clock time the flush had every reply ready,
	// just before the record was written and the replies sent; the batch
	// began LatencySeconds earlier.
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
	// QueueDepth is the combined queued-request count the worker saw when it
	// formed the batch, ShedTotal the GPU's cumulative admission sheds then.
	QueueDepth int   `json:"queue_depth"`
	ShedTotal  int64 `json:"shed_total"`
	// The wall-clock stages after the queue wait, in order: dedup and
	// staging consume, the simulated extraction, the functional gather (zero
	// in timing-only mode), and the row fan-out into the replies. The record
	// is written before the replies are sent, so a caller holding its Result
	// finds its batch in the ring; the sends themselves are in no stage.
	CoalesceSeconds float64 `json:"coalesce_seconds"`
	ExtractSeconds  float64 `json:"extract_seconds"`
	GatherSeconds   float64 `json:"gather_seconds"`
	ReplySeconds    float64 `json:"reply_seconds"`
}

// dedupRatio is requested/unique keys (1.0 = no sharing across requests).
func (b *Batch) dedupRatio() float64 {
	if b.UniqueKeys == 0 {
		return 0
	}
	return float64(b.RequestedKeys) / float64(b.UniqueKeys)
}

// LatencySeconds is the batch's wall time from its first request's enqueue
// to its replies being ready — the five stages summed. The first request
// is the oldest, so it is every coalesced request's latency short of the
// reply's send.
func (b *Batch) LatencySeconds() float64 {
	return b.QueueWaitSeconds + b.CoalesceSeconds + b.ExtractSeconds + b.GatherSeconds + b.ReplySeconds
}

// batchWords is a Batch's size in ring words: ten integer words (GPU and
// fill reason share one) and fourteen float64s.
const batchWords = 24

// floats lists the float64 fields in their ring-word order.
func (b *Batch) floats() [14]*float64 {
	return [...]*float64{
		&b.QueueWaitSeconds, &b.CoalesceSeconds, &b.ExtractSeconds, &b.GatherSeconds, &b.ReplySeconds,
		&b.SimSeconds,
		&b.LocalBytes, &b.RemoteBytes, &b.HostBytes, &b.NetworkBytes,
		&b.LocalSeconds, &b.RemoteSeconds, &b.HostSeconds, &b.NetworkSeconds,
	}
}

// store writes the record into a ring slot's words; load reads it back.
func (b *Batch) store(w *[batchWords]atomic.Uint64) {
	w[0].Store(uint64(b.Seq))
	w[1].Store(uint64(uint32(b.GPU))<<8 | uint64(b.Reason))
	w[2].Store(uint64(b.UnixNanos))
	w[3].Store(uint64(b.Requests))
	w[4].Store(uint64(b.RequestedKeys))
	w[5].Store(uint64(b.UniqueKeys))
	w[6].Store(uint64(b.PrefetchHits))
	w[7].Store(uint64(b.StaleBatches))
	w[8].Store(uint64(b.QueueDepth))
	w[9].Store(uint64(b.ShedTotal))
	for i, f := range b.floats() {
		w[10+i].Store(math.Float64bits(*f))
	}
}

func (b *Batch) load(w *[batchWords]atomic.Uint64) {
	b.Seq = int64(w[0].Load())
	gr := w[1].Load()
	b.GPU, b.Reason = int(int32(gr>>8)), FillReason(gr)
	b.UnixNanos = int64(w[2].Load())
	b.Requests = int(w[3].Load())
	b.RequestedKeys = int(w[4].Load())
	b.UniqueKeys = int(w[5].Load())
	b.PrefetchHits = int(w[6].Load())
	b.StaleBatches = int64(w[7].Load())
	b.QueueDepth = int(w[8].Load())
	b.ShedTotal = int64(w[9].Load())
	for i, f := range b.floats() {
		*f = math.Float64frombits(w[10+i].Load())
	}
}

// appendJSON renders the record as one flight-JSONL object (no trailing
// newline). The key names are this view's own — shorter than /debug/trace's,
// and kept as they were when batches were packed into Events; new keys are
// only ever appended.
func (b *Batch) appendJSON(buf []byte) []byte {
	buf = appendHead(buf, "batch", b.UnixNanos, int64(b.GPU), b.Seq)
	for _, f := range [...]struct {
		key string
		v   float64
	}{
		{"latency_s", b.LatencySeconds()}, {"requests", float64(b.Requests)},
		{"unique_keys", float64(b.UniqueKeys)}, {"prefetch_hits", float64(b.PrefetchHits)},
		{"sim_s", b.SimSeconds}, {"local_s", b.LocalSeconds}, {"remote_s", b.RemoteSeconds},
		{"host_s", b.HostSeconds}, {"network_s", b.NetworkSeconds},
		{"requested_keys", float64(b.RequestedKeys)}, {"stale_batches", float64(b.StaleBatches)},
		{"queue_depth", float64(b.QueueDepth)}, {"shed_total", float64(b.ShedTotal)},
		{"queue_wait_s", b.QueueWaitSeconds}, {"coalesce_s", b.CoalesceSeconds},
		{"extract_s", b.ExtractSeconds}, {"gather_s", b.GatherSeconds}, {"reply_s", b.ReplySeconds},
	} {
		buf = appendFloat(buf, f.key, f.v)
	}
	buf = append(appendKey(buf, "reason"), '"')
	buf = append(buf, b.Reason.String()...)
	return append(buf, '"', '}')
}

// Trace is a read-side view over a set of worker rings: all of a recorder's
// (Recorder.Trace) or the ones one server's workers claimed
// (serve.Server.Trace). It holds no records of its own.
type Trace struct {
	rings []*Ring
}

// NewTrace returns a view over rings.
func NewTrace(rings []*Ring) *Trace { return &Trace{rings: rings} }

// Snapshot appends the records the rings hold to dst, oldest first by
// completion time (ties keep ring order), and returns it. It runs
// concurrently with the writers; a slot being overwritten is skipped, never
// surfaced torn.
func (t *Trace) Snapshot(dst []Batch) []Batch {
	start := len(dst)
	for _, r := range t.rings {
		dst = r.Snapshot(dst)
	}
	added := dst[start:]
	sort.SliceStable(added, func(i, j int) bool { return added[i].UnixNanos < added[j].UnixNanos })
	return dst
}

// WriteJSON renders the held records (oldest first) as a JSON array, each
// with its derived dedup_ratio and latency_seconds — the /debug/trace body.
func (t *Trace) WriteJSON(w io.Writer) error {
	type jsonBatch struct {
		Batch
		DedupRatio     float64 `json:"dedup_ratio"`
		LatencySeconds float64 `json:"latency_seconds"`
	}
	batches := t.Snapshot(nil)
	out := make([]jsonBatch, len(batches))
	for i := range batches {
		out[i] = jsonBatch{batches[i], batches[i].dedupRatio(), batches[i].LatencySeconds()}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
