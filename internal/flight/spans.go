package flight

import (
	"fmt"
	"time"

	"ugache/internal/timeline"
)

// tiers names the source classes a batch record splits its extraction into
// (§5's per-source core groups), in track order: the link flows from
// tiers[i] of the ring on track k are drawn on ProcSim tid k*len(tiers)+i.
var tiers = [...]string{"local", "remote", "host", "network"}

// NameTracks names the serve, overload and link-flow processes and the
// tracks t's rings draw on, reading ring g as GPU g's worker, as a server's
// Trace does: "gpu 0 worker", "gpu 0 admission", "gpu 0 local" and so on. A
// ring is drawn on the track of its index in the recorder, so servers that
// share one recorder draw apart; the tracks of every server after the first
// are named after its node, "node 1 gpu 0 worker".
func (t *Trace) NameTracks(tl *timeline.Recorder) {
	tl.SetProcessName(timeline.ProcServe, "serve")
	tl.SetProcessName(timeline.ProcOverload, "overload")
	tl.SetProcessName(timeline.ProcSim, "link flows")
	for g, r := range t.rings {
		gpu := fmt.Sprintf("gpu %d", g)
		if node := int(r.track) / len(t.rings); node > 0 {
			gpu = fmt.Sprintf("node %d %s", node, gpu)
		}
		tl.SetThreadName(timeline.ProcServe, r.track, gpu+" worker")
		tl.SetThreadName(timeline.ProcOverload, r.track, gpu+" admission")
		for i, tier := range tiers {
			tl.SetThreadName(timeline.ProcSim, r.track*int32(len(tiers))+int32(i), gpu+" "+tier)
		}
	}
}

// AppendSpans renders every held batch as its Chrome-trace events and
// appends them to dst, on its ring's tracks (see NameTracks): on the serve
// track the span tree batch → queue-wait / coalesce / extract / gather /
// reply (the root carries the record's seq, the join column an Exemplar
// resolves through); on the link-flow tracks one span per source class the
// batch read from, starting with its extract stage and lasting that class's
// modelled seconds; and on the overload track the queue-depth and
// cumulative-shed counter samples taken at batch formation, plus a shed
// instant wherever the count moved between two consecutive batches of a
// worker. Register it with tl.AddSource: every track is then derived from
// the record rings at export time, never stored per flush.
func (t *Trace) AppendSpans(tl *timeline.Recorder, dst []timeline.Event) []timeline.Event {
	var buf []Batch
	for _, r := range t.rings {
		buf = r.Snapshot(buf[:0])
		tid := r.track
		for i := range buf {
			b := &buf[i]
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

// DrawControl makes tl draw the control ring at export, the way serve.New
// registers its batch rings: the control track (the refresh → refresh-solve
// / refresh-update-step trees of the Fig. 17 duty cycle, the policy solves
// and the drift checks) and the prefetch track's window trees. The ring is
// their only store. Call it once per recorder pair, from whoever builds both.
func (r *Recorder) DrawControl(tl *timeline.Recorder) {
	tl.SetProcessName(timeline.ProcControl, "control")
	tl.SetThreadName(timeline.ProcControl, timeline.TIDRefresh, "cache refresh")
	tl.SetThreadName(timeline.ProcControl, timeline.TIDSolver, "policy solver")
	tl.SetThreadName(timeline.ProcControl, timeline.TIDDrift, "drift detector")
	tl.AddSource(func(dst []timeline.Event) []timeline.Event {
		for _, e := range r.Events() {
			end := tl.Since(time.Unix(0, e.UnixNanos))
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
				dst = appendPrefetch(dst, &e, end)
			}
		}
		return dst
	})
}

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
