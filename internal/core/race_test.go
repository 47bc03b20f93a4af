package core

import (
	"bytes"
	"sync"
	"testing"

	"ugache/internal/cache"
	"ugache/internal/emb"
	"ugache/internal/extract"
	"ugache/internal/platform"
	"ugache/internal/rng"
	"ugache/internal/workload"
)

// TestConcurrentLookupDuringRefresh drives Lookup, ExtractBatch, Stats and
// EstimatedTimes from many goroutines while Refresh repeatedly re-solves.
// Run with -race. Lookups must always return exact host-table bytes and
// extractions must always see a consistent placement/extractor pair.
func TestConcurrentLookupDuringRefresh(t *testing.T) {
	const n = 3000
	p := platform.ServerC()
	table, err := emb.NewMaterialized("t", n, 16, emb.Float32, 7)
	if err != nil {
		t.Fatal(err)
	}
	h := testHotness(n, 1.2, 5)
	sys, err := Build(Config{
		Platform:   p,
		Hotness:    h,
		EntryBytes: table.EntryBytes(),
		CacheRatio: 0.1,
		Source:     table,
	})
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rng.New(uint64(w + 21))
			z, _ := workload.NewZipf(n, 1.1)
			keys := make([]int64, 12)
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
				if err := sys.Lookup(w%p.N, keys, out, nil); err != nil {
					t.Errorf("lookup: %v", err)
					return
				}
				for i, k := range keys {
					table.ReadRow(k, want)
					if !bytes.Equal(out[i*table.EntryBytes():(i+1)*table.EntryBytes()], want) {
						t.Errorf("torn lookup for key %d", k)
						return
					}
				}
				b := &extract.Batch{Keys: make([][]int64, p.N)}
				b.Keys[w%p.N] = keys
				if res, err := sys.ExtractBatch(b, nil); err != nil || res.Time <= 0 {
					t.Errorf("extract: %v", err)
					return
				}
				if st := sys.Stats(); len(st) != p.N {
					t.Errorf("stats arity %d", len(st))
					return
				}
				if et := sys.EstimatedTimes(); len(et) != p.N {
					t.Errorf("estimates arity %d", len(et))
					return
				}
			}
		}(w)
	}

	cfg := cache.DefaultRefreshConfig()
	cfg.BatchEntries = 500
	h2 := make(workload.Hotness, n)
	for i := range h2 {
		h2[i] = h[n-1-i]
	}
	for round := 0; round < 6; round++ {
		target := h2
		if round%2 == 1 {
			target = h
		}
		if _, err := sys.Refresh(target, 0.001, cfg); err != nil {
			t.Fatalf("refresh round %d: %v", round, err)
		}
	}
	close(stop)
	wg.Wait()
}
