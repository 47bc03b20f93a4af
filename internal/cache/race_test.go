package cache

import (
	"bytes"
	"sync"
	"testing"

	"ugache/internal/emb"
	"ugache/internal/platform"
	"ugache/internal/rng"
	"ugache/internal/solver"
	"ugache/internal/workload"
)

// TestConcurrentGatherDuringRefresh hammers Gather/Locate/HitCounts from
// many goroutines while Refresh repeatedly flips between two placements.
// Run with -race. Every gathered row must match the host table exactly
// (reads are never torn), and every locate must agree with one of the two
// placements in play (old or new, never a mix).
func TestConcurrentGatherDuringRefresh(t *testing.T) {
	const n = 3000
	p := platform.ServerC()
	pl, in := testPlacement(t, p, n, 0.1)
	table, err := emb.NewMaterialized("t", n, 16, emb.Float32, 5)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := Fill(p, pl, FillOptions{CapacityEntries: in.Capacity, Source: table})
	if err != nil {
		t.Fatal(err)
	}

	// The alternate placement (reversed hotness).
	h2 := make(workload.Hotness, n)
	for i := range h2 {
		h2[i] = in.Hotness[n-1-i]
	}
	in2 := *in
	in2.Hotness = h2
	pl2, err := (solver.UGache{}).Solve(&in2)
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	const readers = 6
	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rng.New(uint64(w + 1))
			z, _ := workload.NewZipf(n, 1.1)
			keys := make([]int64, 16)
			out := make([]byte, len(keys)*table.EntryBytes())
			want := make([]byte, table.EntryBytes())
			for {
				select {
				case <-stop:
					return
				default:
				}
				for i := range keys {
					keys[i] = z.Sample(r)
				}
				dst := w % p.N
				if err := sys.Gather(dst, keys, out, nil); err != nil {
					t.Errorf("gather: %v", err)
					return
				}
				for i, k := range keys {
					table.ReadRow(k, want)
					if !bytes.Equal(out[i*table.EntryBytes():(i+1)*table.EntryBytes()], want) {
						t.Errorf("torn gather for key %d", k)
						return
					}
				}
				// locate must agree with one of the two placements in full.
				k := keys[0]
				src, _, err := locate(sys, dst, k)
				if err != nil {
					t.Errorf("locate: %v", err)
					return
				}
				if src != pl.SourceOf(dst, k) && src != pl2.SourceOf(dst, k) {
					t.Errorf("key %d: source %d matches neither placement (%d / %d)",
						k, src, pl.SourceOf(dst, k), pl2.SourceOf(dst, k))
					return
				}
				if l, rm, h, err := hitCounts(sys, dst, keys); err != nil || l+rm+h != len(keys) {
					t.Errorf("hitcounts %d/%d/%d err %v", l, rm, h, err)
					return
				}
			}
		}(w)
	}

	cfg := DefaultRefreshConfig()
	cfg.BatchEntries = 500
	for round := 0; round < 8; round++ {
		target := pl2
		if round%2 == 1 {
			target, err = (solver.UGache{}).Solve(in)
			if err != nil {
				t.Fatal(err)
			}
		}
		if _, err := sys.Refresh(target, nil, 0.001, cfg); err != nil {
			t.Fatalf("refresh round %d: %v", round, err)
		}
	}
	close(stop)
	wg.Wait()
}
