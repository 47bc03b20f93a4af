package flight

import (
	"time"

	"ugache/internal/timeline"
)

// AppendSpans renders every held batch as its Chrome-trace events and
// appends them to dst: on the serve track the span tree batch → queue-wait /
// coalesce / extract / gather / reply (the root carries the record's seq,
// the join column an Exemplar resolves through), and on the overload track
// the queue-depth and cumulative-shed counter samples taken at batch
// formation, plus a shed instant wherever the count moved between two
// consecutive batches of a worker. Register it with tl.AddSource: the trees
// are then derived from the record rings at export time instead of being
// stored a second time per flush.
func (t *Trace) AppendSpans(tl *timeline.Recorder, dst []timeline.Event) []timeline.Event {
	var buf []Batch
	for _, r := range t.rings {
		buf = r.Snapshot(buf[:0])
		for i := range buf {
			b := &buf[i]
			tid := int32(b.GPU)
			lat := b.LatencySeconds()
			start := max(0, tl.Since(time.Unix(0, b.UnixNanos))-lat)
			root := timeline.Event{Name: "batch", Cat: "serve", Ph: timeline.PhSpan,
				PID: timeline.ProcServe, TID: tid, Start: start, Dur: lat}
			root.AddArg("seq", float64(b.Seq))
			root.AddArg("requests", float64(b.Requests))
			root.AddArg("requested_keys", float64(b.RequestedKeys))
			root.AddArg("unique_keys", float64(b.UniqueKeys))
			root.AddArg("sim_seconds", b.SimSeconds)
			root.AddArg("fill_reason", float64(b.Reason))
			root.AddArg("prefetch_hits", float64(b.PrefetchHits))
			root.AddArg("staleness_batches", float64(b.StaleBatches))
			dst = append(dst, root)
			at := start
			for _, st := range [...]struct {
				name string
				dur  float64
			}{
				{"queue-wait", b.QueueWaitSeconds}, {"coalesce", b.CoalesceSeconds},
				{"extract", b.ExtractSeconds}, {"gather", b.GatherSeconds}, {"reply", b.ReplySeconds},
			} {
				if st.name != "gather" || st.dur > 0 { // no gather in timing-only mode
					dst = append(dst, timeline.Event{Name: st.name, Cat: "serve", Ph: timeline.PhSpan,
						PID: timeline.ProcServe, TID: tid, Start: at, Dur: st.dur})
				}
				at += st.dur
			}

			formed := start + b.QueueWaitSeconds
			depth := timeline.Event{Name: "queue_depth", Cat: "overload", Ph: timeline.PhCounter,
				PID: timeline.ProcOverload, TID: tid, Start: formed}
			depth.AddArg("requests", float64(b.QueueDepth))
			shed := timeline.Event{Name: "shed_total", Cat: "overload", Ph: timeline.PhCounter,
				PID: timeline.ProcOverload, TID: tid, Start: formed}
			shed.AddArg("requests", float64(b.ShedTotal))
			dst = append(dst, depth, shed)
			before := int64(0) // sheds known before this batch; unknown past the window's edge
			if i > 0 {
				before = buf[i-1].ShedTotal
			} else if b.Seq > 1 {
				before = b.ShedTotal
			}
			if b.ShedTotal > before {
				inst := timeline.Event{Name: "overload-shed", Cat: "overload", Ph: timeline.PhInstant,
					PID: timeline.ProcOverload, TID: tid, Start: formed}
				inst.AddArg("new_sheds", float64(b.ShedTotal-before))
				dst = append(dst, inst)
			}
		}
	}
	return dst
}
