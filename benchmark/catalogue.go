package main

// The five workloads, in run order. BENCHMARK.json carries the same names
// with one line on why each exists; README.md has the long form.
const (
	serveSteady    = "serve-steady"
	serveSaturate  = "serve-saturate"
	trainExtract   = "train-extract"
	refreshDrift   = "refresh-drift"
	clusterScatter = "cluster-scatter"
)

var workloadNames = []string{serveSteady, serveSaturate, trainExtract, refreshDrift, clusterScatter}

// boundKind says how a metric's bound is read when two runs are compared.
type boundKind int

const (
	noBound  boundKind = iota // per-layer: reported, never gated
	relBound                  // may worsen by Bound as a share of the baseline
	absBound                  // may worsen by Bound in the metric's own unit
	exact                     // sim-clock and counts: identical for equal seeds
)

// metricDef is one line of the metric catalogue.
type metricDef struct {
	Name   string
	Unit   string
	Clock  string // "sim", "wall" or "" for counts and shares
	Better string // "lower" or "higher"
	// EndToEnd marks what a user of the system sees; the rest are per-layer.
	EndToEnd bool
	Kind     boundKind
	Bound    float64
	// ExactOn names the workloads on which a relBound sim-clock metric does
	// not depend on wall-clock batch formation and must repeat exactly.
	ExactOn []string
	// Moves names, for a per-layer metric, the end-to-end metric it should
	// move and on which workload — written down before anything is measured.
	Moves string
	// Workloads the metric is measured on; nil means all five. Elsewhere the
	// single-workload result line carries 0 for it.
	Workloads []string
}

func (m *metricDef) on(workload string) bool {
	if m.Workloads == nil {
		return true
	}
	for _, w := range m.Workloads {
		if w == workload {
			return true
		}
	}
	return false
}

func (m *metricDef) exactOn(workload string) bool {
	if m.Kind == exact {
		return true
	}
	for _, w := range m.ExactOn {
		if w == workload {
			return true
		}
	}
	return false
}

var (
	requestWorkloads = []string{serveSteady, serveSaturate, refreshDrift, clusterScatter}
	serveWorkloads   = []string{serveSteady, serveSaturate, refreshDrift}
	openLoop         = []string{serveSteady, refreshDrift}
)

func e2e(name, unit, clock, better string, kind boundKind, bound float64, workloads ...string) metricDef {
	return metricDef{Name: name, Unit: unit, Clock: clock, Better: better, EndToEnd: true, Kind: kind, Bound: bound, Workloads: workloads}
}

func layer(name, unit, clock, better, moves string, workloads ...string) metricDef {
	return metricDef{Name: name, Unit: unit, Clock: clock, Better: better, Moves: moves, Workloads: workloads}
}

// catalogue lists every metric the harness emits: the issue's twelve
// end-to-end metrics with the bounds -compare holds them to, then the
// per-layer metrics. README.md has the long form of both tables.
//
// Two departures from the issue's table, both forced by how the values come
// about. p50_ms and goodput_qps are emitted on every workload, not only
// where the issue gates them: the ledger's shares and harness.trace_overhead
// need them. sim_extract_ms and gpu_hit_ratio are exact only on
// train-extract, where one pass over a fixed pool produces them; on the
// serving workloads the batches they average over are formed by the wall
// clock, so they carry a relative bound there.
var catalogue = []metricDef{
	e2e("setup_s", "s", "wall", "lower", relBound, 0.10),
	e2e("p50_ms", "ms", "wall", "lower", relBound, 0.10),
	e2e("p99_ms", "ms", "wall", "lower", relBound, 0.10, serveSteady),
	e2e("slo_attain", "ratio", "wall", "higher", absBound, 0.01, serveSteady, refreshDrift, clusterScatter),
	e2e("goodput_qps", "1/s", "wall", "higher", relBound, 0.10),
	e2e("fail_ratio", "ratio", "", "lower", absBound, 0.001),
	{Name: "sim_extract_ms", Unit: "ms", Clock: "sim", Better: "lower", EndToEnd: true, Kind: relBound, Bound: 0.10, ExactOn: []string{trainExtract}},
	e2e("sim_speedup_vs_baseline", "ratio", "sim", "higher", exact, 0, trainExtract),
	{Name: "gpu_hit_ratio", Unit: "ratio", Clock: "sim", Better: "higher", EndToEnd: true, Kind: relBound, Bound: 0.01, ExactOn: []string{trainExtract}},
	e2e("host_iters_per_s", "1/s", "wall", "higher", relBound, 0.10, trainExtract),
	e2e("refresh_s", "s", "wall", "lower", relBound, 0.10, refreshDrift),
	e2e("peak_rss_mb", "MB", "wall", "lower", relBound, 0.10),

	layer("workload.gen_ns_per_req", "ns", "wall", "lower", "none: harness cost, must stay under 5 % of a driver's budget"),
	layer("workload.lag_p99_ms", "ms", "wall", "lower", "validity gate for p50_ms, p99_ms on serve-steady, refresh-drift", openLoop...),

	layer("serve.admit_ns", "ns", "wall", "lower", "goodput_qps on serve-saturate", serveWorkloads...),
	layer("serve.queue_wait_p50_ms", "ms", "wall", "lower", "p50_ms on serve-steady", requestWorkloads...),
	layer("serve.fill_timer_share", "ratio", "", "lower", "bypass proof: 1 on serve-steady, 0 on serve-saturate", requestWorkloads...),
	layer("serve.fill_full_share", "ratio", "", "higher", "bypass proof: 0 on serve-steady, 1 on serve-saturate", requestWorkloads...),
	layer("serve.batches", "count", "", "lower", "goodput_qps on serve-saturate", requestWorkloads...),
	layer("serve.mean_batch_keys", "count", "", "higher", "goodput_qps on serve-saturate", requestWorkloads...),
	layer("serve.dedup_ratio", "ratio", "", "lower", "goodput_qps on serve-saturate", requestWorkloads...),
	layer("serve.shed", "count", "", "lower", "fail_ratio, slo_attain on every serving workload", requestWorkloads...),
	layer("serve.queue_depth_peak", "count", "", "lower", "fail_ratio, slo_attain on every serving workload", requestWorkloads...),
	layer("serve.allocs_per_req", "count", "", "lower", "goodput_qps on serve-saturate, peak_rss_mb", requestWorkloads...),
	layer("serve.alloc_bytes_per_req", "B", "", "lower", "goodput_qps on serve-saturate, peak_rss_mb", requestWorkloads...),
	layer("serve.model_ms_per_batch", "ms", "sim", "lower", "sim_extract_ms on every serving workload", requestWorkloads...),
	layer("serve.residual_ms", "ms", "wall", "lower", "p50_ms on serve-steady: the unattributed share", requestWorkloads...),
	layer("serve.prefetch_hit_share", "ratio", "", "higher", "sim_extract_ms, p50_ms on refresh-drift", refreshDrift),
	layer("serve.stale_served_keys", "count", "", "lower", "sim_extract_ms, p50_ms on refresh-drift", refreshDrift),
	layer("serve.prefetch_dropped", "count", "", "lower", "sim_extract_ms, p50_ms on refresh-drift", refreshDrift),

	layer("core.extract_us_per_batch", "us", "wall", "lower", "host_iters_per_s on train-extract, goodput_qps on serve-saturate"),
	layer("core.lookup_ns_per_key", "ns", "wall", "lower", "host_iters_per_s on train-extract, goodput_qps on serve-saturate"),
	layer("core.overhead_us_per_batch", "us", "wall", "lower", "host_iters_per_s on train-extract, goodput_qps on serve-saturate"),

	layer("extract.run_us_per_batch", "us", "wall", "lower", "host_iters_per_s on train-extract, goodput_qps on serve-saturate"),
	layer("extract.local_byte_share", "ratio", "sim", "higher", "sim_extract_ms, gpu_hit_ratio on train-extract, refresh-drift"),
	layer("extract.peer_byte_share", "ratio", "sim", "higher", "sim_extract_ms, gpu_hit_ratio on train-extract, refresh-drift"),
	layer("extract.host_byte_share", "ratio", "sim", "lower", "sim_extract_ms, gpu_hit_ratio on train-extract, refresh-drift"),
	layer("extract.network_byte_share", "ratio", "sim", "lower", "sim_extract_ms, gpu_hit_ratio on cluster-scatter", clusterScatter),
	layer("extract.pcie_util", "ratio", "sim", "lower", "sim_extract_ms on train-extract"),
	layer("extract.nvlink_util", "ratio", "sim", "higher", "sim_extract_ms on train-extract"),

	layer("sim.run_us_per_batch", "us", "wall", "lower", "host_iters_per_s on train-extract; little on serve-steady"),
	layer("sim.phases_per_run", "count", "sim", "lower", "sim.run_us_per_batch"),

	layer("hashtable.bulk_lookup_ns_per_key", "ns", "wall", "lower", "host_iters_per_s on train-extract, goodput_qps on serve-saturate"),
	layer("hashtable.dedup_ns_per_key", "ns", "wall", "lower", "goodput_qps on serve-saturate"),
	layer("hashtable.insert_ns_per_key", "ns", "wall", "lower", "refresh_s on refresh-drift"),
	layer("hashtable.delete_ns_per_key", "ns", "wall", "lower", "refresh_s on refresh-drift"),

	layer("cache.gather_ns_per_key", "ns", "wall", "lower", "host_iters_per_s on train-extract, goodput_qps on serve-saturate"),
	layer("cache.fill_s", "s", "wall", "lower", "setup_s everywhere"),
	layer("cache.refresh_apply_s", "s", "wall", "lower", "refresh_s on refresh-drift", refreshDrift),
	{Name: "cache.refresh_moved_entries", Unit: "count", Better: "lower", Kind: exact, Moves: "refresh_s on refresh-drift", Workloads: []string{refreshDrift}},
	layer("cache.sampler_observe_ns_per_key", "ns", "wall", "lower", "p50_ms on refresh-drift"),
	layer("cache.sample_merge_us", "us", "wall", "lower", "p50_ms on refresh-drift"),
	layer("cache.drift_check_us", "us", "wall", "lower", "p50_ms on refresh-drift"),
	layer("cache.staging_consume_ns_per_key", "ns", "wall", "lower", "p50_ms on refresh-drift"),

	layer("solver.solve_s", "s", "wall", "lower", "setup_s everywhere"),
	layer("solver.resolve_s", "s", "wall", "lower", "refresh_s on refresh-drift", refreshDrift),
	layer("solver.nodes", "count", "", "lower", "solver.solve_s"),
	layer("solver.blocks", "count", "", "lower", "solver.solve_s"),
	layer("solver.est_max_ms", "ms", "sim", "lower", "sim_extract_ms: the model's own prediction"),
	layer("solver.est_over_lower_bound", "ratio", "sim", "lower", "sim_extract_ms"),

	layer("cluster.ring_owner_ns", "ns", "wall", "lower", "goodput_qps on cluster-scatter", clusterScatter),
	layer("cluster.cross_node_key_share", "ratio", "", "lower", "p50_ms, goodput_qps on cluster-scatter", clusterScatter),
	layer("cluster.dispatches_per_lookup", "ratio", "", "lower", "p50_ms, goodput_qps on cluster-scatter", clusterScatter),
	layer("cluster.sub_keys_per_dispatch", "count", "", "higher", "p50_ms, goodput_qps on cluster-scatter", clusterScatter),
	layer("cluster.partials", "count", "", "lower", "fail_ratio, slo_attain on cluster-scatter", clusterScatter),
	layer("cluster.local_leg_ms", "ms", "wall", "lower", "p50_ms, goodput_qps on cluster-scatter: the slower leg sets the result", clusterScatter),
	layer("cluster.remote_leg_ms", "ms", "wall", "lower", "p50_ms, goodput_qps on cluster-scatter: the slower leg sets the result", clusterScatter),

	layer("harness.trace_overhead", "ratio", "wall", "lower", "none: what tracing costs the first listed end-to-end metric"),
	layer("harness.window_spread", "ratio", "wall", "lower", "none: the noise -compare weighs a worsening against"),
}

// contractMetric is one entry of BENCHMARK.json's end_to_end list.
type contractMetric struct {
	name  string
	bound float64
}

// contractEndToEnd is what BENCHMARK.json lists under end_to_end, the
// metrics the benchmark contract's runner gates later changes on. Its format
// wants each produced by every workload, never 0, with a relative bound that
// ten runs on ten different seeds stay well inside. Of the twelve, these are
// the ones that hold the issue's bound that way on the reference machine;
// the rest are listed under per_layer there, reported and not gated, and
// README.md gives each one's measured spread. The format has no exact
// bound, so the two sim-clock metrics carry the smallest relative one that
// covers how far they move from seed to seed, and it asks for set-up time
// to carry the largest bound of all.
var contractEndToEnd = []contractMetric{
	{"setup_s", 0.25},
	{"sim_extract_ms", 0.10},
	{"gpu_hit_ratio", 0.01},
}

func inContract(name string) bool {
	for _, c := range contractEndToEnd {
		if c.name == name {
			return true
		}
	}
	return false
}

func metricByName(name string) *metricDef {
	for i := range catalogue {
		if catalogue[i].Name == name {
			return &catalogue[i]
		}
	}
	return nil
}
