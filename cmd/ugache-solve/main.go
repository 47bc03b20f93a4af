// ugache-solve solves a cache policy for a synthetic workload and prints
// the placement summary — a harness around the paper's Solver (§6).
//
// Usage:
//
//	ugache-solve -server C -entries 1000000 -alpha 1.2 -ratio 0.08
//	ugache-solve -policy partition
//	ugache-solve -server B -compare    # every stock policy; -policy is ignored
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"time"

	"ugache/internal/platform"
	"ugache/internal/rng"
	"ugache/internal/solver"
	"ugache/internal/workload"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command on an argument list: the summary goes to w, errors to
// errw, and it returns the exit code.
func run(args []string, w, errw io.Writer) int {
	fs := flag.NewFlagSet("ugache-solve", flag.ContinueOnError)
	fs.SetOutput(errw)
	var (
		server  = fs.String("server", "C", "platform: A, B, or C")
		entries = fs.Int("entries", 200000, "embedding entries")
		alpha   = fs.Float64("alpha", 1.2, "Zipf skew of the synthetic hotness")
		ratio   = fs.Float64("ratio", 0.08, "per-GPU cache ratio")
		dim     = fs.Int("dim", 128, "embedding dimension (float32)")
		policy  = fs.String("policy", "ugache", "policy name (see -compare for all)")
		compare = fs.Bool("compare", false, "solve with every policy family")
		seed    = fs.Uint64("seed", 42, "random seed")
		blocks  = fs.Int("blocks", 0, "hotness block budget (0 = policy default)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *entries < 1 || *dim < 1 {
		fmt.Fprintf(errw, "ugache-solve: -entries (%d) and -dim (%d) must be at least 1\n", *entries, *dim)
		return 1
	}
	if !(*ratio >= 0) || math.IsInf(*ratio, 1) || *blocks < 0 {
		fmt.Fprintf(errw, "ugache-solve: -ratio (%g) and -blocks (%d) must be finite and non-negative\n", *ratio, *blocks)
		return 1
	}
	p, err := platform.ByName(*server)
	if err != nil {
		fmt.Fprintf(errw, "ugache-solve: %v\n", err)
		return 1
	}

	r := rng.New(*seed)
	perm := r.Perm(*entries)
	h := make(workload.Hotness, *entries)
	for rank := 0; rank < *entries; rank++ {
		h[perm[rank]] = math.Pow(float64(rank+1), -*alpha)
	}
	caps := make([]int64, p.N)
	for g := range caps {
		caps[g] = int64(*ratio * float64(*entries))
	}
	in := &solver.Input{P: p, Hotness: h, EntryBytes: *dim * 4, Capacity: caps, BlockBudget: *blocks}

	pols := solver.Policies()
	if !*compare {
		pol, err := solver.PolicyByName(*policy)
		if err != nil {
			fmt.Fprintln(errw, "ugache-solve:", err)
			return 1
		}
		pols = []solver.Policy{pol}
	}
	fmt.Fprintf(w, "%s, %d entries, zipf %.2f, ratio %.1f%%, dim %d\n\n",
		p.Name, *entries, *alpha, *ratio*100, *dim)
	fmt.Fprintf(w, "%-18s %12s %10s %8s %8s %8s %10s %9s %13s\n",
		"policy", "est time", "solve", "local", "remote", "host", "blocks", "est/bound", "cap used")
	for _, pol := range pols {
		name := pol.Name()
		t0 := time.Now()
		pl, err := pol.Solve(in)
		el := time.Since(t0)
		if err == nil {
			if verr := pl.Validate(in); verr != nil {
				err = fmt.Errorf("INVALID: %w", verr)
			}
		}
		if err != nil {
			if !*compare {
				fmt.Fprintf(errw, "ugache-solve: %s: %v\n", name, err)
				return 1
			}
			fmt.Fprintf(w, "%-18s %s\n", name, err)
			continue
		}
		maxT := 0.0
		for _, t := range pl.EstTimes {
			if t > maxT {
				maxT = t
			}
		}
		st := pl.Stats(h)[0]
		// The two columns a realization that ships less than its solve priced
		// shows up in: modelled time over the proven bound (blank where the
		// policy proves none), and the emptiest and fullest cache.
		overBound := ""
		if pl.LowerBound > 0 {
			overBound = fmt.Sprintf("%.4f", maxT/pl.LowerBound)
		}
		minUsed, maxUsed := 1.0, 0.0
		for g, used := range pl.CapacityUsed() {
			share := 1.0
			if caps[g] > 0 {
				share = float64(used) / float64(caps[g])
			}
			minUsed, maxUsed = min(minUsed, share), max(maxUsed, share)
		}
		fmt.Fprintf(w, "%-18s %10.4gus %10s %7.1f%% %7.1f%% %7.1f%% %10d %9s %5.1f-%.1f%%\n",
			name, maxT*1e6, el.Round(time.Millisecond),
			st.Local*100, st.Remote*100, st.Host*100, len(pl.Blocks),
			overBound, minUsed*100, maxUsed*100)
		if pl.LowerBound > 0 {
			fmt.Fprintf(w, "%-18s   (LP lower bound %.4gus)\n", "", pl.LowerBound*1e6)
		}
	}
	return 0
}
