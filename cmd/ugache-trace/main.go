// ugache-trace checks what the system estimates and writes: the hotness
// estimate against batches it never saw, span timelines, and flight-recorder
// bundles. A DLR key stream needs no file; it is a pure function of its
// dataset, scale and seed.
//
// Usage:
//
//	ugache-trace -hotness -dataset CR -scale 0.05 -batches 96 -batch 2048
//	ugache-trace -check-timeline trace.json   # validate a span timeline
//	ugache-trace -check-bundle bundles/flight-20260809-120000.000000000
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"ugache/internal/flight"
	"ugache/internal/rng"
	"ugache/internal/timeline"
	"ugache/internal/workload"
)

func main() {
	var (
		hot      = flag.Bool("hotness", false, "draw -batches batches and print their skew and the held-out check of their hotness profile")
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
	case *hot:
		if err := hotness(os.Stdout, *dataset, *scale, *batches, *batch, *seed); err != nil {
			fatal("%v", err)
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

// hotness draws `batches` DLR batches of `batch` samples each from the named
// dataset and writes their skew and how a profile of the first half holds on
// the second.
func hotness(w io.Writer, dataset string, scale float64, batches, batch int, seed uint64) error {
	if batches < 1 {
		return fmt.Errorf("-batches must be >= 1, got %d", batches)
	}
	if batch < 1 {
		return fmt.Errorf("-batch must be >= 1, got %d", batch)
	}
	spec, err := workload.DLRSpecByName(dataset)
	if err != nil {
		return err
	}
	ds, err := spec.Build(scale, seed)
	if err != nil {
		return err
	}
	r := rng.New(seed).Split("dlr-" + spec.Name)
	bs := make([][]int64, batches)
	total := 0
	for i := range bs {
		bs[i] = ds.GenBatch(r, batch)
		total += len(bs[i])
	}
	hot, err := workload.ProfileBatches(ds.NumEntries(), bs)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s at scale %g, seed %d: %d batches, %d keys total, %d entries\n",
		spec.Name, scale, seed, batches, total, ds.NumEntries())
	fracs := []float64{0.001, 0.01, 0.1}
	for _, frac := range fracs {
		fmt.Fprintf(w, "  top %5.1f%% of entries cover %5.1f%% of accesses\n",
			frac*100, hot.TopShare(frac)*100)
	}
	// The estimate checks itself: what a profile of the first half says
	// its hottest entries cover, next to what they cover in the second.
	predicted, delivered, err := workload.HeldOutCoverage(ds.NumEntries(), bs, fracs)
	if err != nil {
		fmt.Fprintf(w, "  no held-out check: %v\n", err)
		return nil
	}
	half := batches / 2
	fmt.Fprintf(w, "  profile of batches 1-%d against batches %d-%d, share of a batch's distinct keys:\n",
		half, half+1, batches)
	fmt.Fprintf(w, "    hottest entries  predicted  delivered\n")
	for i, frac := range fracs {
		fmt.Fprintf(w, "    %14.1f%%  %8.1f%%  %8.1f%%\n", frac*100, predicted[i]*100, delivered[i]*100)
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
