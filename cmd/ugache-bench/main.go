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
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"ugache/internal/bench"
	"ugache/internal/flight"
	"ugache/internal/prof"
	"ugache/internal/stats"
	"ugache/internal/telemetry"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command on an argument list: reports go to w, errors to errw,
// and it returns the exit code.
func run(args []string, w, errw io.Writer) (code int) {
	fs := flag.NewFlagSet("ugache-bench", flag.ContinueOnError)
	fs.SetOutput(errw)
	var (
		exps       = fs.String("exp", "all", "comma-separated experiment names, or 'all'")
		scale      = fs.Float64("scale", 0.25, "dataset scale multiplier (1.0 = full stand-in scale)")
		iters      = fs.Int("iters", 3, "measured iterations per configuration")
		seed       = fs.Uint64("seed", 42, "random seed")
		quick      = fs.Bool("quick", false, "trim the configuration matrix")
		workers    = fs.Int("workers", 0, "workers computing a figure's configurations (0 = one per CPU, 1 = sequential); output is the same at any value")
		list       = fs.Bool("list", false, "list experiments and exit")
		telem      = fs.Bool("telemetry", false, "instrument the experiments' core systems and print a summary table of all collected metrics")
		jsonOut    = fs.String("json-out", "", "write the machine-readable reports of experiments that produce one (e.g. drift, prefetch) to this JSON file")
		timelineF  = fs.String("timeline", "", "draw the flight recorders of every experiment run (their serve, refresh, solver, drift and prefetch tracks) on one time axis and write Chrome trace-event JSON to this file")
		cpuprofile = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = fs.String("memprofile", "", "write a heap profile to this file at exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	stopProf, err := prof.Start(prof.Config{CPUProfile: *cpuprofile, MemProfile: *memprofile})
	if err != nil {
		fmt.Fprintf(errw, "ugache-bench: %v\n", err)
		return 1
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintf(errw, "ugache-bench: %v\n", err)
			if code == 0 {
				code = 1
			}
		}
	}()
	if *list {
		names := bench.Names()
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(w, "%-18s %s\n", n, bench.Registry[n].Brief)
		}
		return 0
	}

	names := bench.Names()
	if *exps != "all" {
		names = strings.Split(*exps, ",")
	}
	opt := bench.Options{Scale: *scale, Iters: *iters, Seed: *seed, Quick: *quick, Workers: *workers}
	var reg *telemetry.Registry
	if *telem {
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
			fmt.Fprintf(errw, "ugache-bench: %s: %v\n", name, err)
			failed++
			continue
		}
		fmt.Fprintf(w, "### %s (%.1fs)\n\n%s\n", name, time.Since(t0).Seconds(), res.Text)
		if res.JSON != nil {
			jsonReports[res.Name] = res.JSON
		}
		if *timelineF != "" {
			recs = append(recs, res.Flight...)
		}
	}
	if *jsonOut != "" {
		var briefs []string
		for _, name := range sortedKeys(jsonReports) {
			briefs = append(briefs, fmt.Sprintf("%s: %s", name, bench.Registry[name].Brief))
		}
		command := "ugache-bench " + strings.Join(args, " ")
		if err := bench.WriteBaseline(*jsonOut, strings.Join(briefs, "; "), command, jsonReports); err != nil {
			fmt.Fprintf(errw, "ugache-bench: %v\n", err)
			failed++
		} else {
			fmt.Fprintf(w, "### json\n\nwrote %d report(s) to %s\n", len(jsonReports), *jsonOut)
		}
	}
	if reg != nil {
		samples := reg.Samples()
		if len(samples) == 0 {
			fmt.Fprintln(w, "### telemetry\n\n(no instrumented experiment ran; drift, prefetch and fig17 build the instrumented core)")
		} else {
			t := stats.NewTable("Telemetry: accumulated metrics across the run", "metric", "value")
			for _, s := range samples {
				t.AddRow(s.Name, fmt.Sprintf("%g", s.Value))
			}
			fmt.Fprintf(w, "### telemetry\n\n%s\n", t.String())
		}
	}
	if *timelineF != "" {
		f, err := os.Create(*timelineF)
		spans := 0
		if err == nil {
			spans, err = flight.WriteTrace(f, recs...)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintf(errw, "ugache-bench: %v\n", err)
			failed++
		} else {
			fmt.Fprintf(w, "### timeline\n\nwrote %d spans to %s (open in https://ui.perfetto.dev; fig17 emits the refresh/solver tracks)\n", spans, *timelineF)
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
