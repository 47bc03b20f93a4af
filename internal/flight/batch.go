package flight

import (
	"math"
	"sort"
	"sync/atomic"

	"ugache/internal/platform"
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

// Batch is the one record a flushed batch leaves behind: how it formed
// (queue state, coalesce size, dedup, flush trigger), where its wall time
// went stage by stage, and what the extraction model said it cost, split by
// source tier (§5.3/§6.2 — the local/remote/host breakdown is the quantity
// UGache's solver optimizes). The serving worker writes it once, into its own
// ring; its flight-JSONL line (appendJSON), the bundle exemplar and the
// Chrome-trace span tree are all read-side renderings of it. The struct is
// flat (no pointers, no slices) and packs into batchWords ring words.
type Batch struct {
	// Seq numbers the batches of one worker ring from 1; Ring.Record
	// assigns it, so it is also the record's position in its ring.
	Seq int64
	// GPU is the destination GPU the batch was extracted for.
	GPU int
	// UnixNanos is the wall-clock time the flush had every reply ready,
	// just before the record was written and the replies sent; the batch
	// began LatencySeconds earlier.
	UnixNanos int64
	// QueueWaitSeconds is how long the first request of the batch sat in
	// the queue before its worker picked it up.
	QueueWaitSeconds float64
	// Requests is the number of client requests coalesced into the batch.
	Requests int
	// RequestedKeys counts keys before dedup, UniqueKeys after.
	RequestedKeys int
	UniqueKeys    int
	// Reason is the flush trigger (full / idle / drain).
	Reason FillReason
	// SimSeconds is the modelled extraction time of the batch.
	SimSeconds float64
	// PrefetchHits is how many unique keys were served from the lookahead
	// staging arena instead of the placement's source tier.
	PrefetchHits int
	// StaleBatches is the maximum bounded-staleness (in batches) among the
	// staged rows this batch consumed — non-zero only when rows committed
	// under an outgoing placement version were served inside the staleness
	// window.
	StaleBatches int64
	// TierBytes[t] is the bytes moved from tier t (indexed by platform.Tier:
	// local, remote, host, network), copied from the extractor's tier split
	// (extract.Result.TierBytes). The network tier is the cluster's
	// remote-machine class; zero off-cluster.
	TierBytes [platform.NumTiers]float64
	// TierSeconds[t] is tier t's modelled seconds (§6.2 serial estimate:
	// bytes x time-per-byte; tiers overlap in the real schedule, so the parts
	// may sum to more than SimSeconds).
	TierSeconds [platform.NumTiers]float64
	// QueueDepth is the combined queued-request count the worker saw when it
	// formed the batch, ShedTotal the GPU's cumulative admission sheds then.
	QueueDepth int
	ShedTotal  int64
	// The wall-clock stages after the queue wait, in order: dedup and
	// staging consume, the simulated extraction, the functional gather (zero
	// in timing-only mode), and the row fan-out into the replies. The record
	// is written before the replies are sent, so a caller holding its Result
	// finds its batch in the ring; the sends themselves are in no stage.
	CoalesceSeconds float64
	ExtractSeconds  float64
	GatherSeconds   float64
	ReplySeconds    float64
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
		&b.TierBytes[0], &b.TierBytes[1], &b.TierBytes[2], &b.TierBytes[3],
		&b.TierSeconds[0], &b.TierSeconds[1], &b.TierSeconds[2], &b.TierSeconds[3],
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
// newline): the line /debug/flight and a bundle's flight.jsonl carry. The
// keys were fixed when batches were packed into Events; new keys are only
// ever appended (TestBatchViewKeysGolden). Counts render as integers, so
// every value reads back exactly.
func (b *Batch) appendJSON(buf []byte) []byte {
	buf = appendHead(buf, "batch", b.UnixNanos, int64(b.GPU), b.Seq)
	for _, f := range [...]struct {
		key string
		v   int64
	}{
		{"requests", int64(b.Requests)}, {"unique_keys", int64(b.UniqueKeys)},
		{"prefetch_hits", int64(b.PrefetchHits)}, {"requested_keys", int64(b.RequestedKeys)},
		{"stale_batches", b.StaleBatches}, {"queue_depth", int64(b.QueueDepth)}, {"shed_total", b.ShedTotal},
	} {
		buf = appendInt(buf, f.key, f.v)
	}
	for _, f := range [...]struct {
		key string
		v   float64
	}{
		{"latency_s", b.LatencySeconds()},
		{"sim_s", b.SimSeconds}, {"local_s", b.TierSeconds[platform.TierLocal]},
		{"remote_s", b.TierSeconds[platform.TierRemote]},
		{"host_s", b.TierSeconds[platform.TierHost]}, {"network_s", b.TierSeconds[platform.TierNetwork]},
		{"queue_wait_s", b.QueueWaitSeconds}, {"coalesce_s", b.CoalesceSeconds},
		{"extract_s", b.ExtractSeconds}, {"gather_s", b.GatherSeconds}, {"reply_s", b.ReplySeconds},
		{"local_bytes", b.TierBytes[platform.TierLocal]}, {"remote_bytes", b.TierBytes[platform.TierRemote]},
		{"host_bytes", b.TierBytes[platform.TierHost]}, {"network_bytes", b.TierBytes[platform.TierNetwork]},
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
