package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

// shortRun runs one workload traced and test-sized: small tables, windows
// of a fifth of seconds.
func shortRun(t *testing.T, workload string, seconds float64) *workloadReport {
	t.Helper()
	o := &options{workload: workload, seed: 42, seconds: seconds, trace: true, short: true}
	rep, _, err := runWorkload(o)
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	if !rep.Correct {
		t.Errorf("%s: correctness gate failed: %v", workload, rep.Problems)
	}
	return rep
}

// TestEveryMetricOnceWithUnit runs a traced pass of all five workloads — a
// traced run produces the end-to-end metrics too — and checks that every
// catalogued metric appears exactly where the catalogue says, with its unit.
// (set panics on a second write, so present means present once.)
func TestEveryMetricOnceWithUnit(t *testing.T) {
	sameSeed := map[string][]string{
		trainExtract: {"sim_extract_ms", "sim_speedup_vs_baseline", "gpu_hit_ratio"},
		refreshDrift: {"cache.refresh_moved_entries"},
	}
	for _, w := range workloadNames {
		rep := shortRun(t, w, 1)
		for i := range catalogue {
			def := &catalogue[i]
			m := rep.metric(def.Name)
			switch {
			case def.Name == "harness.trace_overhead":
				// needs both runs; the all-workloads command sets it
			case def.on(w) && m == nil:
				t.Errorf("%s: %s not emitted", w, def.Name)
			case !def.on(w) && m != nil:
				t.Errorf("%s: %s emitted but not catalogued for this workload", w, def.Name)
			case m != nil && (m.Unit == "" || m.Unit != def.Unit):
				t.Errorf("%s: %s has unit %q, catalogue says %q", w, def.Name, m.Unit, def.Unit)
			}
		}
		for _, c := range contractEndToEnd {
			if v := rep.value(c.name); v <= 0 {
				t.Errorf("%s: contract metric %s = %g, must never be 0", w, c.name, v)
			}
		}
		if len(rep.Ledger) == 0 {
			t.Errorf("%s: traced run has no ledger", w)
		}
		if names, ok := sameSeed[w]; ok {
			again := shortRun(t, w, 0.25) // the sim clock and the counts do not care how long
			for _, name := range names {
				if a, b := rep.value(name), again.value(name); a != b || a == 0 {
					t.Errorf("%s: %s = %v then %v for the same seed", w, name, a, b)
				}
			}
		}
	}
}

// TestResultLine checks the contract's last line on an untraced report:
// exactly the keys asked for, and exactly the end_to_end metrics.
func TestResultLine(t *testing.T) {
	rep := newWorkloadReport(&options{workload: serveSteady, seed: 42, seconds: calibratedSeconds}, "")
	rep.Counts = counts{Sent: 1000, Served: 1000, Verified: 62}
	rep.set("p50_ms", 1.8)
	for i, c := range contractEndToEnd {
		rep.set(c.name, float64(i+1))
	}
	var line struct {
		Correct   *bool  `json:"correct"`
		Attempted int64  `json:"attempted"`
		Failed    *int64 `json:"failed"`
		Metrics   map[string]struct {
			Value float64
			Unit  string
		} `json:"metrics"`
	}
	dec := json.NewDecoder(strings.NewReader(rep.resultLine()))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&line); err != nil {
		t.Fatal(err)
	}
	if line.Correct == nil || !*line.Correct || line.Failed == nil || *line.Failed != 0 || line.Attempted != 1000 {
		t.Errorf("result line %s", rep.resultLine())
	}
	if len(line.Metrics) != len(contractEndToEnd) {
		t.Errorf("%d metrics in the untraced result line, want %d", len(line.Metrics), len(contractEndToEnd))
	}
	for i, c := range contractEndToEnd {
		if m, ok := line.Metrics[c.name]; !ok || m.Value != float64(i+1) || m.Unit != metricByName(c.name).Unit {
			t.Errorf("result line has %+v for %s", m, c.name)
		}
	}
}

// TestContractMatchesCatalogue holds BENCHMARK.json to the catalogue.
func TestContractMatchesCatalogue(t *testing.T) {
	var contract struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &contract); err != nil {
		t.Fatal(err)
	}
	if len(contract.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads in BENCHMARK.json, want %d", len(contract.Workloads), len(workloadNames))
	}
	for i, w := range contract.Workloads {
		if w.Name != workloadNames[i] || w.Why != specs[w.Name].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the harness %q (%q)", i, w.Name, w.Why, workloadNames[i], specs[workloadNames[i]].why)
		}
	}
	if contract.RunSeconds != calibratedSeconds {
		t.Errorf("run_seconds %d, the harness is sized at %d", contract.RunSeconds, calibratedSeconds)
	}
	var layers []metricDef
	for _, def := range catalogue {
		if !strings.HasPrefix(def.Name, "harness.") && !inContract(def.Name) {
			layers = append(layers, def)
		}
	}
	if len(contract.EndToEnd) != len(contractEndToEnd) || len(contract.PerLayer) != len(layers) {
		t.Fatalf("BENCHMARK.json lists %d + %d metrics, the catalogue %d + %d",
			len(contract.EndToEnd), len(contract.PerLayer), len(contractEndToEnd), len(layers))
	}
	for i, m := range contract.EndToEnd {
		c := contractEndToEnd[i]
		def := metricByName(c.name)
		if m.Name != c.name || m.Unit != def.Unit || m.Better != def.Better || m.Bound != c.bound {
			t.Errorf("end_to_end[%d] = %+v, the harness has %+v, %+v", i, m, c, *def)
		}
		// Every workload's result line carries it, and a later change is
		// rejected on it: it must be measured everywhere and end-to-end.
		if !def.EndToEnd || def.Workloads != nil {
			t.Errorf("%s is in the contract but not an end-to-end metric of all workloads", c.name)
		}
	}
	for i, m := range contract.PerLayer {
		if def := layers[i]; m.Name != def.Name || m.Unit != def.Unit || m.Better != def.Better {
			t.Errorf("per_layer[%d] = %+v, catalogue has %+v", i, m, def)
		}
	}
	for _, def := range catalogue {
		if !def.EndToEnd && def.Moves == "" {
			t.Errorf("%s does not say which end-to-end metric it should move", def.Name)
		}
	}
}

func TestWindowMedian(t *testing.T) {
	w := acrossWindows([]float64{5, 1, 4, 2, 100})
	if w.Median != 4 || w.Min != 1 || w.Max != 100 || w.spread() != 100 {
		t.Errorf("acrossWindows = %+v, spread %g", w, w.spread())
	}
	if m := median([]float64{3, 1, 2, 4}); m != 2.5 {
		t.Errorf("median of four = %g, want 2.5", m)
	}
	if median(nil) != 0 || (windowed{}).spread() != 0 {
		t.Error("empty input must read 0")
	}
}

func TestPercentileWithSampleCount(t *testing.T) {
	var xs []float64
	for i := 1; i <= 1000; i++ {
		xs = append(xs, float64(i))
	}
	if v, beyond := percentile(xs, 0.99); v != 990 || beyond != 10 {
		t.Errorf("p99 of 1..1000 = %g with %d beyond, want 990 with 10", v, beyond)
	}
	if v, beyond := percentile(xs, 0.50); v != 500 || beyond != 500 {
		t.Errorf("p50 of 1..1000 = %g with %d beyond, want 500 with 500", v, beyond)
	}
	if v, beyond := percentile(xs[:5], 0.99); v != 5 || beyond != 0 {
		t.Errorf("p99 of five samples = %g with %d beyond: the count must say the tail is empty", v, beyond)
	}
	if v, beyond := percentile(nil, 0.5); v != 0 || beyond != 0 {
		t.Errorf("percentile of nothing = %g, %d", v, beyond)
	}
}

func TestSpanSelfTime(t *testing.T) {
	us := time.Microsecond
	log := newSpanLog(1)
	root := log.add("root", 0, 7, 0, 100*us)
	a := log.add("a", root, 7, 10*us, 40*us)
	log.add("a.inner", a, 7, 10*us, 25*us)
	log.add("b", root, 7, 30*us, 60*us)  // overlaps a: the overlap counts once
	log.add("c", root, 7, 90*us, 150*us) // runs past the parent: clipped to it
	log.add("early", root, 7, -20*us, -5*us)
	self := selfTimes(log.spans)
	for id, want := range map[int]time.Duration{root: 40 * us, a: 15 * us} {
		if self[id] != want {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], want)
		}
	}
	rows := buildLedger(log.spans, func(string) (string, float64) { return "p50_ms", 0.1 })
	if rows[0].Span != "root" || rows[0].Count != 1 || rows[0].SelfUs != 40 || rows[0].Share != 0.4 {
		t.Errorf("ledger row %+v, want root self 40 us = 0.4 of 0.1 ms", rows[0])
	}
}

func TestJudge(t *testing.T) {
	val := func(v, lo, hi float64) *metricValue { return &metricValue{Value: v, Min: &lo, Max: &hi} }
	p50 := metricByName("p50_ms")
	if _, v := judge(p50, serveSteady, val(1, 1, 1), val(1.09, 1.09, 1.09), true); v != pass {
		t.Errorf("9%% worse under a 10%% bound: %s", v)
	}
	if _, v := judge(p50, serveSteady, val(1, 1, 1), val(1.4, 1.4, 1.4), true); v != regression {
		t.Errorf("40%% worse with steady windows: %s", v)
	}
	if _, v := judge(p50, serveSteady, val(1, 1, 1), val(1.4, 1, 1.5), true); v != unresolved {
		t.Errorf("40%% worse with windows spread 1.5x: %s", v)
	}
	if _, v := judge(p50, serveSteady, val(1, 0.9, 1.2), val(1.4, 1.3, 1.5), true); v != regression {
		t.Errorf("40%% worse and outside either run's windows, however wide they are: %s", v)
	}
	slo := metricByName("slo_attain")
	if _, v := judge(slo, refreshDrift, val(0.88, 0.85, 0.91), val(0.86, 0.84, 0.90), true); v != unresolved {
		t.Errorf("0.02 down under a 0.01 absolute bound, among the baseline's windows: %s", v)
	}
	if _, v := judge(slo, serveSteady, val(1, 1, 1), val(0.97, 0.97, 0.97), true); v != regression {
		t.Errorf("0.03 down under a 0.01 absolute bound: %s", v)
	}
	good := metricByName("goodput_qps")
	if _, v := judge(good, serveSaturate, val(100, 100, 100), val(60, 60, 60), true); v != regression {
		t.Errorf("higher-is-better metric fell 40%%: %s", v)
	}
	sim := metricByName("sim_extract_ms")
	if _, v := judge(sim, trainExtract, &metricValue{Value: 1}, &metricValue{Value: 1.0000001}, true); v != regression {
		t.Errorf("exact metric differs for equal seeds: %s", v)
	}
	if _, v := judge(sim, trainExtract, &metricValue{Value: 1}, &metricValue{Value: 1.05}, false); v != pass {
		t.Errorf("exact metric under different seeds falls back to its relative bound: %s", v)
	}
}

// TestCompareReports builds pairs of reports by hand and checks what
// -compare makes of them, the capacity workloads' noisy windows included.
func TestCompareReports(t *testing.T) {
	dir := t.TempDir()
	windows := func(name string, v, lo, hi float64) metricValue {
		return metricValue{Name: name, Value: v, Min: &lo, Max: &hi}
	}
	write := func(file string, seconds float64, mutate func(*workloadReport)) string {
		w := &workloadReport{Workload: serveSaturate, Correct: true, Valid: true, Metrics: []metricValue{
			windows("goodput_qps", 300e3, 257e3, 333e3),
			windows("p50_ms", 1.3, 1.25, 1.4),
			{Name: "peak_rss_mb", Value: 220},
		}}
		if mutate != nil {
			mutate(w)
		}
		path := dir + "/" + file
		if err := writeJSON(path, &fullReport{Seed: 42, Seconds: seconds, Workloads: []*workloadReport{w}}); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base.json", 15, nil)
	for _, tc := range []struct {
		name      string
		cand      string
		regressed bool
		says      string
	}{
		{"the same report", base, false, "PASS"},
		{"goodput down 40 %, far outside the baseline's windows", write("drop.json", 15, func(w *workloadReport) {
			w.Metrics[0] = windows("goodput_qps", 180e3, 150e3, 200e3)
		}), true, "REGRESSION"},
		{"goodput down 12 %, among the baseline's windows", write("noise.json", 15, func(w *workloadReport) {
			w.Metrics[0] = windows("goodput_qps", 264e3, 250e3, 270e3)
		}), false, "UNRESOLVED"},
		{"a metric gone", write("gone.json", 15, func(w *workloadReport) { w.Metrics = w.Metrics[:2] }), true, "missing"},
		{"an incorrect run", write("wrong.json", 15, func(w *workloadReport) {
			w.Correct, w.Problems = false, []string{"3 byte-mismatched"}
		}), true, "INCORRECT"},
		{"an invalid run vouches for no wall-clock figure", write("late.json", 15, func(w *workloadReport) {
			w.Valid, w.Invalid = false, []string{"generator lag"}
		}), false, "UNRESOLVED"},
	} {
		var out strings.Builder
		regressed, err := compareReports(&out, base, tc.cand)
		if err != nil || regressed != tc.regressed || !strings.Contains(out.String(), tc.says) {
			t.Errorf("%s: regressed %v, err %v, want regressed %v and %q in\n%s", tc.name, regressed, err, tc.regressed, tc.says, out.String())
		}
	}
	if _, err := compareReports(&strings.Builder{}, base, write("short.json", 2, nil)); err == nil {
		t.Error("a 2 s report was compared with a 15 s one")
	}
}
