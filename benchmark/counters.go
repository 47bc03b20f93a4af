package main

import (
	"runtime"
	"time"

	"ugache/internal/telemetry"
)

// snapshot is the value of every program counter the harness reads, taken
// at one instant. The harness only ever uses differences of two snapshots.
type snapshot map[string]float64

// counterNames are the public counters and gauges behind the counter-derived
// metrics; a name the workload's registry does not have reads 0.
var counterNames = []string{
	"serve_requests_total", "serve_rejected_total", "serve_batches_total",
	"serve_requested_keys_total", "serve_unique_keys_total", "serve_sim_seconds_total",
	"serve_batch_fill_full_total", "serve_batch_fill_timer_total", "serve_queue_depth_peak",
	"serve_fill_prefetch_hit", "serve_stale_served_keys_total", "serve_prefetch_dropped_windows_total",
	"core_hit_local_keys_total", "core_hit_remote_keys_total", "core_hit_host_keys_total", "core_hit_network_keys_total",
	"cluster_lookups_total", "cluster_local_keys_total", "cluster_remote_keys_total",
	"cluster_dispatches_total", "cluster_dispatch_keys_total", "cluster_partial_lookups_total",
}

func takeSnapshot(reg *telemetry.Registry) snapshot {
	s := make(snapshot, len(counterNames))
	for _, name := range counterNames {
		switch m := reg.Find(name).(type) {
		case *telemetry.Counter:
			s[name] = float64(m.Value())
		case *telemetry.FloatCounter:
			s[name] = m.Value()
		case *telemetry.Gauge:
			s[name] = m.Value()
		}
	}
	return s
}

// interval is what the counters did between two snapshots.
type interval struct{ from, to snapshot }

func (iv interval) delta(name string) float64 { return iv.to[name] - iv.from[name] }

// simExtractMs is the mean modelled extraction time of the interval's
// coalesced batches.
func (iv interval) simExtractMs() float64 {
	return 1e3 * ratio(iv.delta("serve_sim_seconds_total"), iv.delta("serve_batches_total"))
}

// gpuHitRatio is the share of extracted keys (equally, bytes: rows are one
// size) that any GPU's cache supplied, local or peer.
func (iv interval) gpuHitRatio() float64 {
	gpu := iv.delta("core_hit_local_keys_total") + iv.delta("core_hit_remote_keys_total")
	return ratio(gpu, gpu+iv.delta("core_hit_host_keys_total")+iv.delta("core_hit_network_keys_total"))
}

// boundarySamples are the counters at every window boundary, and — on a
// traced run — the allocator's totals at the first and the last.
type boundarySamples struct {
	snaps []snapshot
	mem   [2]runtime.MemStats
}

func (bs *boundarySamples) window(w int) interval { return interval{bs.snaps[w], bs.snaps[w+1]} }
func (bs *boundarySamples) all() interval {
	return interval{bs.snaps[0], bs.snaps[len(bs.snaps)-1]}
}

// sampleBoundaries sleeps to each window boundary in turn and reads the
// counters there. It is the one goroutine besides the drivers that runs
// during the windows, and it wakes once per window.
func sampleBoundaries(reg *telemetry.Registry, ck *runClock, withMem bool) *boundarySamples {
	bs := &boundarySamples{}
	for k := 0; k <= ck.windows; k++ {
		time.Sleep(ck.boundary(k) - ck.since())
		bs.snaps = append(bs.snaps, takeSnapshot(reg))
		if withMem && k == 0 {
			runtime.ReadMemStats(&bs.mem[0])
		}
	}
	if withMem {
		runtime.ReadMemStats(&bs.mem[1])
	}
	return bs
}
