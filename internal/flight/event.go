// Package flight is the serving stack's always-on flight recorder: a
// constant-memory, zero-hot-path-allocation log held in lock-free seqlock
// rings. Each serving worker writes one Batch record per flushed batch into a
// ring of its own — the single store behind the flight JSONL (/debug/flight,
// a bundle's flight.jsonl) and the Chrome-trace batch span trees and link
// flows, which are all rendered from it on the read side — and slow-path
// writers (refresh,
// drift, prefetch, the cluster router's partial lookups) share a control
// ring of Events, likewise the one store the trace's control and prefetch
// tracks are drawn from. The recorder owns that trace: Draw renders its
// rings as Chrome trace events, timed from its creation, and WriteTrace
// writes them through internal/timeline's format. On demand (SIGQUIT, POST
// /debug/flight/bundle) it drains everything the post-hoc debugger needs
// into a self-contained diagnostic bundle (records as JSONL, a telemetry
// snapshot, the timeline drawn from them, a goroutine dump and a heap
// profile, tied together by a manifest).
//
// Where internal/telemetry answers "how many / how long on average" and
// the trace answers "when, on which track", flight answers "what
// exactly happened in the seconds before a bundle was asked for" — and it
// keeps answering after the fact, because recording never stops and a
// bundle freezes the evidence on disk (DESIGN.md §6.6).
package flight

import (
	"math"
	"strconv"
)

// Kind tags one event's type; it selects which payload slots are meaningful
// and how they are named in the JSONL export. Flushed batches are not
// events: each is one Batch record in its worker's ring (batch.go).
type Kind uint8

const (
	// KindPartial is one cluster lookup that came back partial: a cross-node
	// leg missed the deadline or failed.
	KindPartial Kind = iota + 1
	// KindRefresh is one completed placement refresh (control plane): its
	// policy solve and its §7.2 apply, everything the timeline's solver and
	// refresh tracks are drawn from.
	KindRefresh
	// KindDrift is one drift-detector evaluation (control plane).
	KindDrift
	// KindPrefetch is one staged lookahead prefetch window.
	KindPrefetch
)

var kindNames = [...]string{KindPartial: "partial", KindRefresh: "refresh", KindDrift: "drift", KindPrefetch: "prefetch"}

// String returns the kind's JSONL name.
func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return "unknown"
}

// MaxPayload is the number of numeric payload slots on an Event.
const MaxPayload = 22

// Payload slot indices for KindPartial events.
const (
	PartialMissingKeys = iota
	PartialRemoteKeys
)

// Payload slot indices for KindRefresh events: the measured solve, the
// report's simulated Fig. 17 layout (refreshSteps update steps of
// refreshStepSeconds busy time, the last one refreshLastStepSeconds, each
// followed by refreshPauseSeconds), the wall seconds from the trigger to the
// record, and the solved placement's storage summary in
// solver.StorageSummary's order. Only the trace reads them by index; the
// writer (core.System.Refresh) fills the slots in the order
// kindFields[KindRefresh] names them.
const (
	refreshSolveWallSeconds = iota
	refreshDurationSeconds
	refreshMovedEntries
	refreshMeanImpact
	refreshEvictedEntries
	refreshInsertedEntries
	refreshSolveSeconds
	refreshUpdateSeconds
	refreshSteps
	refreshStepSeconds
	refreshLastStepSeconds
	refreshPauseSeconds
	refreshWallSeconds
	refreshBlocks
	refreshReplicatedBlocks
	refreshPartialBlocks
	refreshPartitionedBlocks
	refreshUncachedBlocks
	refreshReplicatedMass
	refreshPartitionedMass
	refreshUncachedMass
	refreshEstTimeMax
)

// Payload slot indices for KindDrift events.
const (
	DriftScore = iota
	DriftTopKOverlap
	DriftRankDistance
	DriftWindowBatches
	DriftDrifted
)

// Payload slot indices for KindPrefetch events: the window's keys, its
// modelled extraction, and the wall seconds of its three stages, which end
// at the record's time.
const (
	PrefetchAnnouncedKeys = iota
	PrefetchFetchedKeys
	PrefetchSimSeconds
	PrefetchFilterSeconds
	PrefetchExtractSeconds
	PrefetchStageSeconds
)

// kindFields names each kind's used payload slots, in slot order; the JSONL
// export emits exactly these, and the timeline draws the drift evaluation
// and the storage summary under the same names. New names are appended at
// the end.
var kindFields = map[Kind][]string{
	KindPartial: {"missing_keys", "remote_keys"},
	KindRefresh: {"solve_wall_s", "duration_s", "moved_entries", "mean_impact",
		"evicted_entries", "inserted_entries", "solve_s", "update_s", "update_steps", "step_s", "last_step_s", "pause_s", "wall_s",
		"blocks", "replicated_blocks", "partial_blocks", "partitioned_blocks", "uncached_blocks",
		"replicated_mass", "partitioned_mass", "uncached_mass", "est_time_max"},
	KindDrift:    {"score", "topk_overlap", "rank_distance", "window_batches", "drifted"},
	KindPrefetch: {"announced_keys", "fetched_keys", "sim_s", "filter_s", "extract_s", "stage_s"},
}

// Event is one control-ring record. The struct is flat — no
// pointers, no slices, no strings — so recording is a copy into a
// preallocated ring slot and never allocates.
type Event struct {
	// Kind selects the payload schema.
	Kind Kind
	// GPU is the worker/GPU the event belongs to (the origin node for
	// KindPartial), or -1 for control-plane events that
	// have no single GPU.
	GPU int32
	// Seq is a kind-specific sequence: the placement version for
	// KindRefresh, 0 otherwise.
	Seq int64
	// UnixNanos is the wall-clock time the event completed.
	UnixNanos int64
	// V holds the payload slots; meaning per kind (see the slot index
	// constants), unused slots stay zero.
	V [MaxPayload]float64
}

// appendJSON renders the event as one JSON object (no trailing newline),
// using the kind's field names for the used payload slots.
func (e *Event) appendJSON(buf []byte) []byte {
	buf = appendHead(buf, e.Kind.String(), e.UnixNanos, int64(e.GPU), e.Seq)
	for i, name := range kindFields[e.Kind] {
		buf = appendFloat(buf, name, e.V[i])
	}
	return append(buf, '}')
}

// appendHead opens a JSONL object with the four keys every line carries.
func appendHead(buf []byte, kind string, nanos, gpu, seq int64) []byte {
	buf = append(buf, `{"kind":"`...)
	buf = append(buf, kind...)
	buf = append(buf, '"')
	buf = appendInt(buf, "unix_nanos", nanos)
	buf = appendInt(buf, "gpu", gpu)
	return appendInt(buf, "seq", seq)
}

func appendKey(buf []byte, key string) []byte {
	buf = append(buf, ',', '"')
	buf = append(buf, key...)
	return append(buf, '"', ':')
}

func appendInt(buf []byte, key string, v int64) []byte {
	return strconv.AppendInt(appendKey(buf, key), v, 10)
}

// appendFloat renders one numeric field; non-finite values read 0 so every
// line stays valid JSON.
func appendFloat(buf []byte, key string, v float64) []byte {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		v = 0
	}
	return strconv.AppendFloat(appendKey(buf, key), v, 'g', -1, 64)
}
