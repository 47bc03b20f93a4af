// Command benchmark is the repository's one yardstick: five named
// workloads, the end-to-end metrics a user of the system sees, and — on a
// traced run — a per-layer ledger measured from outside the program. See
// README.md in this directory for the metric catalogue and how to run,
// trace and compare; BENCHMARK.json at the repository root is the contract.
//
//	bash benchmark/run.sh -out report.json            all five workloads
//	bash benchmark/run.sh -trace 1 -trace-out spans   ... plus a traced run each
//	bash benchmark/run.sh -workload serve-steady      one workload, one result line
//	bash benchmark/run.sh -compare a.json b.json      PASS / REGRESSION / UNRESOLVED
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// calibratedSeconds is BENCHMARK.json's run_seconds: the measured length the
// bounds were sized at. The contract's runner passes it as -seconds on every
// run, which is why the flag exists; a run of any other length is a smoke
// test, marked invalid in its report and refused by -compare against a run
// of the calibrated length.
const calibratedSeconds = 15

func main() {
	var o options
	var trace int
	var out, traceOut string
	var compare bool
	flag.StringVar(&o.workload, "workload", "", "run only this workload and print its result line (default: all five, each in its own process)")
	flag.Uint64Var(&o.seed, "seed", 42, "the only source of randomness: the same seed gives the same inputs")
	flag.Float64Var(&o.seconds, "seconds", calibratedSeconds, "measured seconds per workload, split into five windows after a warm-up of a tenth; the benchmark contract's runner passes BENCHMARK.json's run_seconds, the only length the bounds hold for")
	// An int, not a bool: the contract's runner writes "-trace 0" and
	// "-trace 1" as two arguments, which a Go boolean flag cannot take.
	flag.IntVar(&trace, "trace", 0, "1 = traced run: every reply verified, spans recorded, per-layer metrics and ledger (with all workloads: in addition to the untraced run)")
	flag.StringVar(&out, "out", "", "write the JSON report to this file")
	flag.StringVar(&traceOut, "trace-out", "", "write the traced run's spans as JSON to this file (all workloads: <file>.<workload>.json)")
	flag.BoolVar(&compare, "compare", false, "compare two reports: -compare baseline.json candidate.json")
	flag.Parse()
	o.trace = trace != 0

	var err error
	switch {
	case compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("-compare takes two report files")
			break
		}
		var regressed bool
		if regressed, err = compareReports(os.Stdout, flag.Arg(0), flag.Arg(1)); err == nil && regressed {
			os.Exit(1)
		}
	case o.seconds <= 0:
		err = fmt.Errorf("-seconds must be positive")
	case o.workload != "":
		err = runOne(&o, out, traceOut)
	default:
		err = runAll(&o, out, traceOut)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// runOne runs a single workload in this process. The last line of standard
// output is the result object the benchmark contract asks for; an incorrect
// run prints it too and then exits non-zero.
func runOne(o *options, out, traceOut string) error {
	rep, spans, err := runWorkload(o)
	if err != nil {
		return err
	}
	rep.print(os.Stdout)
	if out != "" {
		if err := writeJSON(out, rep); err != nil {
			return err
		}
	}
	if traceOut != "" && o.trace {
		if err := writeSpans(traceOut, spans); err != nil {
			return err
		}
	}
	fmt.Println(rep.resultLine())
	if !rep.Correct {
		return fmt.Errorf("%s: correctness gate failed: %v", o.workload, rep.Problems)
	}
	return nil
}

// runAll re-executes this binary once per workload (and once more, traced,
// with -trace 1), so every workload's heap and peak RSS are its own.
func runAll(o *options, out, traceOut string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(filepath.Dir(exe), "benchmark-run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	child := func(workload string, traced bool) (*workloadReport, error) {
		file := filepath.Join(tmp, workload+".json")
		args := []string{"-workload", workload, "-seed", strconv.FormatUint(o.seed, 10),
			"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-out", file}
		if traced {
			args = append(args, "-trace", "1")
			if traceOut != "" {
				args = append(args, "-trace-out", traceOut+"."+workload+".json")
			}
		}
		cmd := exec.Command(exe, args...)
		cmd.Stderr = os.Stderr
		runErr := cmd.Run() // the child prints its own report; its result file says the rest
		rep := new(workloadReport)
		if err := readJSON(file, rep); err != nil {
			if runErr != nil {
				return nil, fmt.Errorf("%s: %w", workload, runErr)
			}
			return nil, err
		}
		rep.print(os.Stdout)
		return rep, nil
	}

	full := &fullReport{Env: readEnvironment(), Seed: o.seed, Seconds: o.seconds}
	correct := true
	for _, w := range workloadNames {
		rep, err := child(w, false)
		if err != nil {
			return err
		}
		full.Workloads = append(full.Workloads, rep)
		correct = correct && rep.Correct
		if !o.trace {
			continue
		}
		traced, err := child(w, true)
		if err != nil {
			return err
		}
		// Tracing's price: by how much the workload's headline metric is
		// worse in the traced run.
		headline := specs[w].headline
		overhead := worsening(metricByName(headline), rep.value(headline), traced.value(headline))
		traced.set("harness.trace_overhead", overhead)
		fmt.Printf("  %-34s %14.6g ratio (%s, traced worse than untraced by)\n", "harness.trace_overhead", overhead, headline)
		full.Traced = append(full.Traced, traced)
		correct = correct && traced.Correct
	}
	if out != "" {
		if err := writeJSON(out, full); err != nil {
			return err
		}
	}
	if !correct {
		return fmt.Errorf("correctness gate failed")
	}
	return nil
}
