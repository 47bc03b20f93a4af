package flight

import (
	"fmt"
	"io"
	"math"
	"time"

	"ugache/internal/timeline"
)

// tiers names the source classes a batch record splits its extraction into
// (§5's per-source core groups), in track order: the link flows from
// tiers[i] of the ring on track k are drawn on ProcSim tid k*len(tiers)+i.
var tiers = [...]string{"local", "remote", "host", "network"}

// Draw draws what recs hold as one Chrome trace: the names of their tracks
// and their events, sorted (timeline.Sort), timed from the earliest
// recorder's creation (an older record draws at 0). Each claimed batch ring
// draws on its own tracks (see Claim) every held batch: its span tree
// batch → queue-wait / coalesce / extract / gather / reply (the root's seq
// arg is the column an Exemplar resolves through), one link-flow span per
// source class it read from, from its extract stage, and its overload
// counters. The control ring draws the Fig. 17 refresh trees, the policy
// solves, the drift checks and each staged prefetch window's tree. Nothing
// is stored: a trace reaches exactly as far back as the rings.
func Draw(recs ...*Recorder) (timeline.Tracks, []timeline.Event) {
	tracks := timeline.Tracks{Procs: map[int32]string{timeline.ProcControl: "control"}, Threads: map[[2]int32]string{}}
	name := func(pid, tid int32, s string) { tracks.Threads[[2]int32{pid, tid}] = s }
	name(timeline.ProcControl, timeline.TIDRefresh, "cache refresh")
	name(timeline.ProcControl, timeline.TIDSolver, "policy solver")
	name(timeline.ProcControl, timeline.TIDDrift, "drift detector")
	zero := int64(math.MaxInt64)
	for _, r := range recs {
		zero = min(zero, r.created)
	}
	since := func(unixNanos int64) float64 { return max(0, time.Duration(unixNanos-zero).Seconds()) }

	var dst []timeline.Event
	var buf []Batch
	for _, r := range recs {
		r.mu.Lock()
		rings := r.rings[:r.claimed]
		r.mu.Unlock()
		for _, rg := range rings {
			tracks.Procs[timeline.ProcServe] = "serve"
			tracks.Procs[timeline.ProcOverload] = "overload"
			tracks.Procs[timeline.ProcSim] = "link flows"
			name(timeline.ProcServe, rg.track, rg.name+" worker")
			name(timeline.ProcOverload, rg.track, rg.name+" admission")
			for i, tier := range tiers {
				name(timeline.ProcSim, rg.track*int32(len(tiers))+int32(i), rg.name+" "+tier)
			}
			buf = rg.Snapshot(buf[:0])
			dst = appendBatches(dst, buf, rg.track, since)
		}
		for _, e := range r.Events() {
			end := since(e.UnixNanos)
			switch e.Kind {
			case KindRefresh:
				dst = appendRefresh(dst, &e.V, max(0, end-e.V[RefreshWallSeconds]))
			case KindDrift:
				ev := timeline.Event{Name: "drift-check", Cat: "refresh", Ph: timeline.PhInstant,
					PID: timeline.ProcControl, TID: timeline.TIDDrift, Start: end}
				for i, name := range kindFields[KindDrift] {
					ev.AddArg(name, e.V[i])
				}
				dst = append(dst, ev)
			case KindPrefetch:
				tracks.Procs[timeline.ProcPrefetch] = "prefetch"
				name(timeline.ProcPrefetch, e.GPU, fmt.Sprintf("gpu %d prefetch", e.GPU))
				dst = appendPrefetch(dst, &e, end)
			}
		}
	}
	timeline.Sort(dst)
	return tracks, dst
}

// WriteTrace writes Draw(r) as Chrome trace-event JSON (timeline.Write):
// /debug/timeline, a bundle's timeline.json, ugache-serve -trace-out.
func (r *Recorder) WriteTrace(w io.Writer) error {
	tracks, events := Draw(r)
	return timeline.Write(w, tracks, events)
}

// appendBatches draws one ring's batches, buf, on its tracks tid (see Draw):
// the serve span tree, the link flows and the overload samples, plus a shed
// instant wherever the count moved between two consecutive batches.
func appendBatches(dst []timeline.Event, buf []Batch, tid int32, since func(unixNanos int64) float64) []timeline.Event {
	for i := range buf {
		b := &buf[i]
		lat := b.LatencySeconds()
		start := max(0, since(b.UnixNanos)-lat)
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
		extract := start + b.QueueWaitSeconds + b.CoalesceSeconds
		for i, f := range [...]struct{ bytes, seconds float64 }{
			{b.LocalBytes, b.LocalSeconds}, {b.RemoteBytes, b.RemoteSeconds},
			{b.HostBytes, b.HostSeconds}, {b.NetworkBytes, b.NetworkSeconds},
		} {
			if f.bytes == 0 {
				continue
			}
			flow := timeline.Event{Name: "link-flow", Cat: "sim", Ph: timeline.PhSpan,
				PID: timeline.ProcSim, TID: tid*int32(len(tiers)) + int32(i), Start: extract, Dur: f.seconds}
			flow.AddArg("bytes", f.bytes)
			flow.AddArg("seconds", f.seconds)
			dst = append(dst, flow)
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
	return dst
}

// MaxRefreshStepSpans caps the update-step spans one refresh draws so a huge
// diff cannot flood the trace; a refresh-update-steps-truncated instant then
// carries the omitted count, and the refresh span's update_steps arg the
// true total.
const MaxRefreshStepSpans = 128

// drawnAs names the span (or instant) each event kind is drawn as; a
// partial router lookup is not drawn.
var drawnAs = map[string]string{"refresh": "refresh", "drift": "drift-check", "prefetch": "prefetch-window"}

// appendRefresh draws one refresh record from start, its trigger: the real
// policy solve on the solver track, and on the refresh track the simulated
// §7.2 replay — a refresh span covering trigger to completion, a
// refresh-solve child for the background solve phase, and one
// refresh-update-step span per small-batch step (busy time only; the pauses
// between steps show as gaps, exactly the Fig. 17 duty cycle). A record
// without a measured solve draws neither the solve span nor the solve args.
func appendRefresh(dst []timeline.Event, v *[MaxPayload]float64, start float64) []timeline.Event {
	span := func(name string, start, dur float64) timeline.Event {
		return timeline.Event{Name: name, Cat: "refresh", Ph: timeline.PhSpan,
			PID: timeline.ProcControl, TID: timeline.TIDRefresh, Start: start, Dur: dur}
	}
	root := span("refresh", start, v[RefreshDurationSeconds])
	root.AddArg("evicted_entries", v[RefreshEvictedEntries])
	root.AddArg("inserted_entries", v[RefreshInsertedEntries])
	root.AddArg("mean_impact", v[RefreshMeanImpact])
	root.AddArg("solve_seconds", v[RefreshSolveSeconds])
	root.AddArg("update_seconds", v[RefreshUpdateSeconds])
	root.AddArg("update_steps", v[RefreshSteps])
	sim := span("refresh-solve", start, v[RefreshSolveSeconds])
	if wall := v[RefreshSolveWallSeconds]; wall > 0 {
		sim.AddArg("solve_wall_seconds", wall)
		solve := timeline.Event{Name: "policy-solve", Cat: "solver", Ph: timeline.PhSpan,
			PID: timeline.ProcControl, TID: timeline.TIDSolver, Start: start, Dur: wall}
		for i := RefreshBlocks; i <= RefreshEstTimeMax; i++ {
			solve.AddArg(kindFields[KindRefresh][i], v[i])
		}
		dst = append(dst, solve)
	}
	dst = append(dst, root, sim)

	steps, at := int64(v[RefreshSteps]), start+v[RefreshSolveSeconds]
	stepLen := v[RefreshStepSeconds] + v[RefreshPauseSeconds]
	for i := int64(0); i < min(steps, MaxRefreshStepSpans); i++ {
		busy := v[RefreshStepSeconds]
		if i == steps-1 {
			busy = v[RefreshLastStepSeconds]
		}
		ev := span("refresh-update-step", at+float64(i)*stepLen, busy)
		ev.AddArg("step", float64(i))
		dst = append(dst, ev)
	}
	if steps > MaxRefreshStepSpans {
		ev := timeline.Event{Name: "refresh-update-steps-truncated", Cat: "refresh", Ph: timeline.PhInstant,
			PID: timeline.ProcControl, TID: timeline.TIDRefresh, Start: at + MaxRefreshStepSpans*stepLen}
		ev.AddArg("omitted_steps", float64(steps-MaxRefreshStepSpans))
		dst = append(dst, ev)
	}
	return dst
}

// appendPrefetch draws one staged window ending at end on its GPU's prefetch
// track: the window span, with filter, extract and stage children.
func appendPrefetch(dst []timeline.Event, e *Event, end float64) []timeline.Event {
	v := &e.V
	stages := [...]struct {
		name string
		dur  float64
	}{{"filter", v[PrefetchFilterSeconds]}, {"extract", v[PrefetchExtractSeconds]}, {"stage", v[PrefetchStageSeconds]}}
	dur := stages[0].dur + stages[1].dur + stages[2].dur
	at := max(0, end-dur)
	root := timeline.Event{Name: "prefetch-window", Cat: "prefetch", Ph: timeline.PhSpan,
		PID: timeline.ProcPrefetch, TID: e.GPU, Start: at, Dur: dur}
	root.AddArg("announced_keys", v[PrefetchAnnouncedKeys])
	root.AddArg("fetched_keys", v[PrefetchFetchedKeys])
	root.AddArg("sim_seconds", v[PrefetchSimSeconds])
	dst = append(dst, root)
	for _, st := range stages {
		dst = append(dst, timeline.Event{Name: st.name, Cat: "prefetch", Ph: timeline.PhSpan,
			PID: timeline.ProcPrefetch, TID: e.GPU, Start: at, Dur: st.dur})
		at += st.dur
	}
	return dst
}
