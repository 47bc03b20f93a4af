// ugache-trace generates, inspects, and replays DLR key traces so identical
// access streams can be fed to different systems.
//
// Usage:
//
//	ugache-trace -gen trace.bin -dataset SYN-A -batches 64 -batch 8192
//	ugache-trace -info trace.bin
//	ugache-trace -check-timeline trace.json   # validate a span timeline
//	ugache-trace -check-bundle bundles/flight-20260809-120000.000000000
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"ugache/internal/flight"
	"ugache/internal/rng"
	"ugache/internal/timeline"
	"ugache/internal/workload"
)

func main() {
	var (
		gen      = flag.String("gen", "", "write a trace to this file")
		info     = flag.String("info", "", "print a trace's summary")
		checkTL  = flag.String("check-timeline", "", "validate a Chrome trace-event JSON file written by -trace-out / /debug/timeline")
		checkBun = flag.String("check-bundle", "", "validate a flight-recorder diagnostic bundle directory (manifest, JSONL events, exemplar span resolution)")
		dataset  = flag.String("dataset", "SYN-A", "CR, SYN-A, or SYN-B")
		scale    = flag.Float64("scale", 0.25, "dataset scale")
		batches  = flag.Int("batches", 64, "number of batches")
		batch    = flag.Int("batch", 8192, "inference samples per batch")
		seed     = flag.Uint64("seed", 42, "random seed")
	)
	flag.Parse()

	switch {
	case *gen != "":
		if err := checkGen(*batches, *batch); err != nil {
			fatal("%v", err)
		}
		spec, err := workload.DLRSpecByName(*dataset)
		if err != nil {
			fatal("%v", err)
		}
		ds, err := spec.Build(*scale, *seed)
		if err != nil {
			fatal("%v", err)
		}
		r := rng.New(*seed).Split("dlr-" + spec.Name)
		tr := workload.Record(ds.NumEntries(), *batches, func() []int64 {
			return ds.GenBatch(r, *batch)
		})
		f, err := os.Create(*gen)
		if err != nil {
			fatal("%v", err)
		}
		defer f.Close()
		if err := tr.Save(f); err != nil {
			fatal("%v", err)
		}
		fmt.Printf("wrote %d batches (%d keys each) over %d entries to %s\n",
			len(tr.Batches), len(tr.Batches[0]), tr.NumEntries, *gen)

	case *info != "":
		f, err := os.Open(*info)
		if err != nil {
			fatal("%v", err)
		}
		defer f.Close()
		tr, err := workload.LoadTrace(f)
		if err != nil {
			fatal("%v", err)
		}
		hot, err := workload.ProfileBatches(tr.NumEntries, tr.Batches)
		if err != nil {
			fatal("%v", err)
		}
		total := 0
		for _, b := range tr.Batches {
			total += len(b)
		}
		fmt.Printf("%s: %d batches, %d keys total, %d entries\n",
			*info, len(tr.Batches), total, tr.NumEntries)
		fracs := []float64{0.001, 0.01, 0.1}
		for _, frac := range fracs {
			fmt.Printf("  top %5.1f%% of entries cover %5.1f%% of accesses\n",
				frac*100, hot.TopShare(frac)*100)
		}
		// The estimate checks itself: what a profile of the first half says
		// its hottest entries cover, next to what they cover in the second.
		if predicted, delivered, err := tr.HeldOutCoverage(fracs); err != nil {
			fmt.Printf("  no held-out check: %v\n", err)
		} else {
			half := len(tr.Batches) / 2
			fmt.Printf("  profile of batches 1-%d against batches %d-%d, share of a batch's distinct keys:\n",
				half, half+1, len(tr.Batches))
			fmt.Printf("    hottest entries  predicted  delivered\n")
			for i, frac := range fracs {
				fmt.Printf("    %14.1f%%  %8.1f%%  %8.1f%%\n", frac*100, predicted[i]*100, delivered[i]*100)
			}
		}

	case *checkTL != "":
		f, err := os.Open(*checkTL)
		if err != nil {
			fatal("%v", err)
		}
		defer f.Close()
		rep, err := timeline.Validate(f)
		if err != nil {
			fatal("%v", err)
		}
		fmt.Printf("%s: valid Chrome trace, %d events\n", *checkTL, rep.Events)
		for _, ph := range sortedKeys(rep.ByPhase) {
			fmt.Printf("  phase %q: %d\n", ph, rep.ByPhase[ph])
		}
		names := make([]timeline.ProcName, 0, len(rep.Names))
		for k := range rep.Names {
			names = append(names, k)
		}
		sort.Slice(names, func(i, j int) bool {
			a, b := names[i], names[j]
			return a.PID < b.PID || a.PID == b.PID && a.Name < b.Name
		})
		for _, k := range names {
			fmt.Printf("  pid %d %-34s %d\n", k.PID, k.Name, rep.Names[k])
		}

	case *checkBun != "":
		rep, err := flight.ValidateBundle(*checkBun)
		if err != nil {
			fatal("%v", err)
		}
		man := rep.Manifest
		fmt.Printf("%s: valid bundle (reason %q, created %s)\n", *checkBun, man.Reason, man.Created)
		fmt.Printf("  files:            %v\n", man.Files)
		fmt.Printf("  flight events:    %d\n", rep.EventLines)
		for _, k := range sortedKeys(rep.EventsByKind) {
			fmt.Printf("    %-16s %d\n", k, rep.EventsByKind[k])
		}
		fmt.Printf("  metric samples:   %d\n", rep.MetricCount)
		fmt.Printf("  timeline events:  %d\n", rep.TimelineEvents)
		for _, k := range sortedKeys(rep.DrawnSpans) {
			fmt.Printf("    %-16s %d records in %s, %d spans\n", k, rep.EventsByKind[k], flight.EventsFile, rep.DrawnSpans[k])
		}
		if ex := man.Exemplar; ex != nil {
			fmt.Printf("  exemplar:         batch seq %d on gpu %d, track %d (%.3fms) -> span tree of %d spans\n",
				ex.Seq, ex.GPU, ex.Track, ex.LatencySeconds*1e3, rep.ExemplarSpans)
		}

	default:
		flag.Usage()
		os.Exit(2)
	}
}

// checkGen refuses -gen sizes that make no trace.
func checkGen(batches, batch int) error {
	if batches < 1 {
		return fmt.Errorf("-batches must be >= 1, got %d", batches)
	}
	if batch < 1 {
		return fmt.Errorf("-batch must be >= 1, got %d", batch)
	}
	return nil
}

// sortedKeys returns m's keys in order.
func sortedKeys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "ugache-trace: "+format+"\n", args...)
	os.Exit(1)
}
