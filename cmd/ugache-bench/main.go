// ugache-bench regenerates the paper's tables and figures on the simulated
// platforms.
//
// Usage:
//
//	ugache-bench -exp fig10,fig11          # specific experiments
//	ugache-bench -exp all -scale 1.0       # everything at full stand-in scale
//	ugache-bench -list                     # list experiments
//	ugache-bench -exp fig10 -cpuprofile cpu.out -memprofile mem.out
//
// Full-scale runs (-scale 1.0) regenerate the 1/100-scale dataset stand-ins
// and take minutes; -scale 0.1 is a good smoke-test size.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"ugache/internal/bench"
	"ugache/internal/flight"
	"ugache/internal/prof"
	"ugache/internal/stats"
	"ugache/internal/telemetry"
	"ugache/internal/timeline"
)

func main() {
	var (
		exps       = flag.String("exp", "all", "comma-separated experiment names, or 'all'")
		scale      = flag.Float64("scale", 0.25, "dataset scale multiplier (1.0 = full stand-in scale)")
		iters      = flag.Int("iters", 3, "measured iterations per configuration")
		seed       = flag.Uint64("seed", 42, "random seed")
		quick      = flag.Bool("quick", false, "trim the configuration matrix")
		workers    = flag.Int("workers", 0, "workers computing a figure's configurations (0 = one per CPU, 1 = sequential); output is the same at any value")
		list       = flag.Bool("list", false, "list experiments and exit")
		telem      = flag.Bool("telemetry", false, "instrument the experiments' core systems and print a summary table of all collected metrics")
		jsonOut    = flag.String("json-out", "", "write the machine-readable reports of experiments that produce one (e.g. drift, prefetch) to this JSON file")
		lookahead  = flag.Int("lookahead", 0, "narrow the prefetch experiment's lookahead sweep to {0, L} (0 = default {0, 2, 8})")
		staleThr   = flag.Int("stale-threshold", 0, "bounded-staleness window S in batches for the prefetch experiment (0 = experiment default 16)")
		timelineF  = flag.String("timeline", "", "draw the flight recorders of every experiment run (their serve, refresh, solver, drift and prefetch tracks) on one time axis and write Chrome trace-event JSON to this file")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file at exit")
	)
	flag.Parse()

	stopProf, err := prof.Start(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ugache-bench: %v\n", err)
		os.Exit(1)
	}
	code := run(*exps, *scale, *iters, *seed, *quick, *workers, *lookahead, *staleThr, *list, *telem, *timelineF, *jsonOut)
	if err := stopProf(); err != nil {
		fmt.Fprintf(os.Stderr, "ugache-bench: %v\n", err)
		if code == 0 {
			code = 1
		}
	}
	os.Exit(code)
}

func run(exps string, scale float64, iters int, seed uint64, quick bool, workers, lookahead, staleThr int, list, telem bool, timelineF, jsonOut string) int {
	if list {
		names := bench.Names()
		sort.Strings(names)
		for _, n := range names {
			fmt.Printf("%-18s %s\n", n, bench.Registry[n].Brief)
		}
		return 0
	}

	names := bench.Names()
	if exps != "all" {
		names = strings.Split(exps, ",")
	}
	opt := bench.Options{
		Scale: scale, Iters: iters, Seed: seed, Quick: quick, Workers: workers,
		Lookahead: lookahead, StaleBatches: staleThr,
	}
	var reg *telemetry.Registry
	if telem {
		reg = telemetry.NewRegistry(8)
		opt.Telemetry = reg
	}
	var recs []*flight.Recorder // every run's, for -timeline
	failed := 0
	jsonReports := map[string]any{}
	for _, name := range names {
		name = strings.TrimSpace(name)
		t0 := time.Now()
		res, err := bench.Run(name, opt)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ugache-bench: %s: %v\n", name, err)
			failed++
			continue
		}
		fmt.Printf("### %s (%.1fs)\n\n%s\n", name, time.Since(t0).Seconds(), res.Text)
		if res.JSON != nil {
			jsonReports[res.Name] = res.JSON
		}
		if timelineF != "" {
			recs = append(recs, res.Flight...)
		}
	}
	if jsonOut != "" {
		var briefs []string
		for _, name := range sortedKeys(jsonReports) {
			briefs = append(briefs, fmt.Sprintf("%s: %s", name, bench.Registry[name].Brief))
		}
		command := "ugache-bench " + strings.Join(os.Args[1:], " ")
		if err := bench.WriteBaseline(jsonOut, strings.Join(briefs, "; "), command, jsonReports); err != nil {
			fmt.Fprintf(os.Stderr, "ugache-bench: %v\n", err)
			failed++
		} else {
			fmt.Printf("### json\n\nwrote %d report(s) to %s\n", len(jsonReports), jsonOut)
		}
	}
	if reg != nil {
		samples := reg.Samples()
		if len(samples) == 0 {
			fmt.Println("### telemetry\n\n(no instrumented experiment ran; fig17 builds the instrumented core)")
		} else {
			t := stats.NewTable("Telemetry: accumulated metrics across the run", "metric", "value")
			for _, s := range samples {
				t.AddRow(s.Name, fmt.Sprintf("%g", s.Value))
			}
			fmt.Printf("### telemetry\n\n%s\n", t.String())
		}
	}
	if timelineF != "" {
		tracks, events := flight.Draw(recs...)
		if err := writeTimeline(timelineF, tracks, events); err != nil {
			fmt.Fprintf(os.Stderr, "ugache-bench: %v\n", err)
			failed++
		} else {
			fmt.Printf("### timeline\n\nwrote %d spans to %s (open in https://ui.perfetto.dev; fig17 emits the refresh/solver tracks)\n", len(events), timelineF)
		}
	}
	if failed > 0 {
		return 1
	}
	return 0
}

// sortedKeys returns the report names in stable order for the baseline
// description.
func sortedKeys(m map[string]any) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// writeTimeline writes a drawn trace as Chrome trace-event JSON.
func writeTimeline(path string, tracks timeline.Tracks, events []timeline.Event) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := timeline.Write(f, tracks, events); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
