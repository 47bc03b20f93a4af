package solver

import (
	"bytes"
	"math"
	"sync"
	"testing"

	"ugache/internal/platform"
	"ugache/internal/workload"
)

// microInput builds the same 2-GPU reduced instance family as
// TestUGacheMatchesEntryMILP: n entries, Zipf-ish hotness, per-GPU capacity.
func microInput(t testing.TB, n int, capacity int64) *Input {
	t.Helper()
	pair := [][]float64{{0, 50e9}, {50e9, 0}}
	p, err := platform.New(platform.Config{
		Name: "2xV100", Kind: platform.HardWired, GPU: platform.V100x16, N: 2,
		PCIeBW: 12e9, DRAMBW: 140e9, PairBW: pair,
	})
	if err != nil {
		t.Fatal(err)
	}
	h := make(workload.Hotness, n)
	for e := 0; e < n; e++ {
		h[e] = math.Pow(float64(e+1), -1.2) * 1000
	}
	return &Input{P: p, Hotness: h, EntryBytes: 512, Capacity: []int64{capacity, capacity}}
}

// TestExactPolicyCertificate checks the Exact policy's defining property:
// the realized placement's modelled makespan equals the MILP objective, and
// LowerBound is a matching optimality certificate on a complete solve.
func TestExactPolicyCertificate(t *testing.T) {
	in := microInput(t, 24, 8)
	pl := mustSolve(t, Exact{MaxBlocks: 6}, in)
	if err := pl.Validate(in); err != nil {
		t.Fatal(err)
	}
	if pl.Policy != "exact" {
		t.Fatalf("policy %q", pl.Policy)
	}
	if pl.SolveNodes <= 0 {
		t.Fatalf("SolveNodes not recorded: %d", pl.SolveNodes)
	}
	makespan := maxF(pl.EstTimes)
	if pl.LowerBound <= 0 {
		t.Fatalf("LowerBound not set: %g", pl.LowerBound)
	}
	if rel := math.Abs(makespan-pl.LowerBound) / pl.LowerBound; rel > 1e-6 {
		t.Fatalf("makespan %g vs certificate %g (rel %g): exact realization must match the MILP objective",
			makespan, pl.LowerBound, rel)
	}
}

// TestExactDeterminismAcrossWorkers: any worker count yields a byte-
// identical placement (Save bytes) with identical EstTimes and LowerBound.
// SolveNodes is excluded — exploration effort varies, the answer does not.
func TestExactDeterminismAcrossWorkers(t *testing.T) {
	in := microInput(t, 24, 8)
	ex := Exact{MaxBlocks: 6}
	base, err := SolveWith(ex, in, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var baseBuf bytes.Buffer
	if err := base.Save(&baseBuf); err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 8} {
		for rep := 0; rep < 2; rep++ {
			pl, err := SolveWith(ex, in, Options{Workers: w})
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := pl.Save(&buf); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), baseBuf.Bytes()) {
				t.Fatalf("W=%d rep %d: placement bytes differ from W=1", w, rep)
			}
			if pl.LowerBound != base.LowerBound {
				t.Fatalf("W=%d rep %d: LowerBound %v != %v", w, rep, pl.LowerBound, base.LowerBound)
			}
			for i := range pl.EstTimes {
				if pl.EstTimes[i] != base.EstTimes[i] {
					t.Fatalf("W=%d rep %d: EstTimes[%d] %v != %v", w, rep, i, pl.EstTimes[i], base.EstTimes[i])
				}
			}
		}
	}
}

// TestSolveWith hands Exact its options and falls back to plain Solve for
// approximation policies.
func TestSolveWith(t *testing.T) {
	in := microInput(t, 24, 8)
	pl, err := SolveWith(UGache{}, in, Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if pl.Policy != "ugache" {
		t.Fatalf("fallback policy %q", pl.Policy)
	}
	pl, err = SolveWith(Exact{MaxBlocks: 6}, in, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if pl.Policy != "exact" || pl.SolveNodes == 0 {
		t.Fatalf("exact dispatch failed: policy %q nodes %d", pl.Policy, pl.SolveNodes)
	}
}

// TestExactConcurrentSolves runs parallel-worker solves from several
// goroutines at once (meaningful under -race).
func TestExactConcurrentSolves(t *testing.T) {
	in := microInput(t, 16, 6)
	ex := Exact{MaxBlocks: 4}
	base, err := SolveWith(ex, in, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pl, err := SolveWith(ex, in, Options{Workers: 4})
			if err != nil {
				t.Error(err)
				return
			}
			if pl.LowerBound != base.LowerBound {
				t.Errorf("LowerBound %v != base %v", pl.LowerBound, base.LowerBound)
			}
		}()
	}
	wg.Wait()
}
