package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
)

// metricValue is one measured metric. For a statistic taken per window,
// Value is the median across windows and Min/Max the extremes; Samples and
// Beyond state how many samples stand behind a percentile and how many lie
// past it (per window, at the median window).
type metricValue struct {
	Name    string   `json:"name"`
	Value   float64  `json:"value"`
	Unit    string   `json:"unit"`
	Clock   string   `json:"clock,omitempty"`
	Moves   string   `json:"moves,omitempty"` // per-layer: the end-to-end metric it should move, and where
	Min     *float64 `json:"min,omitempty"`
	Max     *float64 `json:"max,omitempty"`
	Samples int      `json:"samples,omitempty"`
	Beyond  int      `json:"beyond,omitempty"`
}

// counts are the operations of the measurement windows.
type counts struct {
	Sent       int64 `json:"sent"`
	Served     int64 `json:"served"`
	Shed       int64 `json:"shed"`
	Failed     int64 `json:"failed"`
	Mismatched int64 `json:"mismatched"`
	Verified   int64 `json:"verified"`
}

// environment is where and how the numbers were taken.
type environment struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func readEnvironment() environment {
	env := environment{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: "unknown",
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				env.Commit = s.Value
			}
		}
	}
	return env
}

// workloadReport is one run of one workload, traced or not.
type workloadReport struct {
	Workload string      `json:"workload"`
	Why      string      `json:"why"`
	Seed     uint64      `json:"seed"`
	Seconds  float64     `json:"seconds"`
	Traced   bool        `json:"traced"`
	Env      environment `json:"environment"`

	// Correct is the correctness gate: every verified reply matched the
	// table, nothing failed, and the harness's counts agree with the
	// program's counters. Problems lists what did not.
	Correct  bool     `json:"correct"`
	Problems []string `json:"problems,omitempty"`
	// Valid is the measurement's own health: a generator that ran late or a
	// run on fewer than two processors is marked, not hidden.
	Valid   bool     `json:"valid"`
	Invalid []string `json:"invalid,omitempty"`

	Counts    counts        `json:"counts"`
	Refreshes int           `json:"refreshes,omitempty"`
	Metrics   []metricValue `json:"metrics"`
	Ledger    []ledgerRow   `json:"ledger,omitempty"`
}

func newWorkloadReport(o *options, why string) *workloadReport {
	return &workloadReport{
		Workload: o.workload, Why: why, Seed: o.seed, Seconds: o.seconds, Traced: o.trace,
		Env: readEnvironment(), Correct: true, Valid: true,
	}
}

func (r *workloadReport) problem(format string, args ...any) {
	r.Correct = false
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

func (r *workloadReport) invalid(format string, args ...any) {
	r.Valid = false
	r.Invalid = append(r.Invalid, fmt.Sprintf(format, args...))
}

// set records one metric; its unit and clock come from the catalogue, and a
// name the catalogue does not list, or one set twice, is a harness bug.
func (r *workloadReport) set(name string, value float64) *metricValue {
	def := metricByName(name)
	if def == nil {
		panic("metric not in catalogue: " + name)
	}
	if r.metric(name) != nil {
		panic("metric set twice: " + name)
	}
	r.Metrics = append(r.Metrics, metricValue{Name: name, Value: value, Unit: def.Unit, Clock: def.Clock, Moves: def.Moves})
	return &r.Metrics[len(r.Metrics)-1]
}

// setWindowed records a per-window statistic: median, with min and max.
func (r *workloadReport) setWindowed(name string, perWindow []float64) *metricValue {
	w := acrossWindows(perWindow)
	m := r.set(name, w.Median)
	m.Min, m.Max = &w.Min, &w.Max
	return m
}

func (r *workloadReport) metric(name string) *metricValue {
	for i := range r.Metrics {
		if r.Metrics[i].Name == name {
			return &r.Metrics[i]
		}
	}
	return nil
}

func (r *workloadReport) value(name string) float64 {
	if m := r.metric(name); m != nil {
		return m.Value
	}
	return 0
}

// print writes every metric by name with its unit and clock.
func (r *workloadReport) print(w io.Writer) {
	mode := "untraced"
	if r.Traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "== %s (%s, seed %d, %gs): sent %d served %d shed %d failed %d mismatched %d, verified %d\n",
		r.Workload, mode, r.Seed, r.Seconds, r.Counts.Sent, r.Counts.Served, r.Counts.Shed,
		r.Counts.Failed, r.Counts.Mismatched, r.Counts.Verified)
	for _, m := range r.Metrics {
		line := fmt.Sprintf("  %-34s %14.6g %-6s", m.Name, m.Value, m.Unit)
		if m.Clock != "" {
			line += " [" + m.Clock + "]"
		}
		if m.Min != nil {
			line += fmt.Sprintf("  windows %.6g..%.6g", *m.Min, *m.Max)
		}
		if m.Samples > 0 {
			line += fmt.Sprintf("  n=%d beyond=%d", m.Samples, m.Beyond)
		}
		if m.Moves != "" {
			line += "  -> " + m.Moves
		}
		fmt.Fprintln(w, strings.TrimRight(line, " "))
	}
	if len(r.Ledger) > 0 {
		fmt.Fprintln(w, "  ledger (median self time per operation, and its share of the end-to-end median):")
		for _, row := range r.Ledger {
			fmt.Fprintf(w, "    %-24s n=%-6d %12.3f us  %6.2f%% of %s\n", row.Span, row.Count, row.SelfUs, 100*row.Share, row.ShareOf)
		}
	}
	for _, p := range r.Problems {
		fmt.Fprintln(w, "  INCORRECT:", p)
	}
	for _, p := range r.Invalid {
		fmt.Fprintln(w, "  INVALID:", p)
	}
}

// resultLine is the single-workload result the benchmark contract asks for
// as the last line of standard output: the end_to_end metrics of
// BENCHMARK.json for an untraced run, its per_layer metrics for a traced
// one. A per-layer metric the workload does not exercise reads 0.
func (r *workloadReport) resultLine() string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value)
	for _, def := range catalogue {
		if strings.HasPrefix(def.Name, "harness.") || inContract(def.Name) == r.Traced {
			continue
		}
		metrics[def.Name] = value{Value: r.value(def.Name), Unit: def.Unit}
	}
	attempted := max(r.Counts.Sent, 1)
	failed := r.Counts.Shed + r.Counts.Failed + r.Counts.Mismatched
	line, err := json.Marshal(map[string]any{
		"correct": r.Correct, "attempted": attempted, "failed": failed, "metrics": metrics,
	})
	if err != nil {
		panic(err)
	}
	return string(line)
}

// fullReport is what the all-workloads command writes with -out.
type fullReport struct {
	Env       environment       `json:"environment"`
	Seed      uint64            `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Workloads []*workloadReport `json:"workloads"`
	// Traced holds the second, traced run of every workload when -trace 1.
	Traced []*workloadReport `json:"traced,omitempty"`
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				if kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	// No procfs: the Go runtime's own footprint is the nearest figure.
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Sys) / (1 << 20)
}
