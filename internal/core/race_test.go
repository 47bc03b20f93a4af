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
	"ugache/internal/solver"
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

// TestSnapshotIsOneLoad flips Refresh between two hotness vectors while
// readers take the published snapshot in one load and check it whole: every
// key its placement stores on a GPU is in that GPU's table, which holds
// nothing else, and the placement's version and hotness are the ones the
// writer recorded for it, as is the version PlacementVersion pairs with it.
// Run with -race.
func TestSnapshotIsOneLoad(t *testing.T) {
	const n = 2000
	p := platform.ServerC()
	hot := [2]workload.Hotness{testHotness(n, 1.2, 5), testHotness(n, 1.2, 6)}
	sys, err := Build(Config{Platform: p, Hotness: hot[0], EntryBytes: 64, CacheRatio: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	// published is a placement's version and the hotness it was solved
	// against: what the one writer recorded, and what a reader saw.
	type published struct {
		version uint64
		hot     workload.Hotness
	}
	recorded := map[*solver.Placement]published{sys.Placement(): {1, hot[0]}}
	type reader struct {
		snaps map[*solver.Placement]published // from Cache.Snapshot
		pairs map[*solver.Placement]uint64    // from PlacementVersion
	}

	stop := make(chan struct{})
	readers := make([]reader, 4)
	var wg sync.WaitGroup
	for r := range readers {
		rd := reader{map[*solver.Placement]published{}, map[*solver.Placement]uint64{}}
		readers[r] = rd
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				sn := sys.Cache.Snapshot()
				pl := sn.Extractor.Pl
				for g, c := range sn.Caches {
					stored := 0
					for e := int64(0); e < n; e++ {
						if !pl.StoredOn(g, e) {
							continue
						}
						stored++
						if _, ok := c.Table.Lookup(e); !ok {
							t.Errorf("version %d: gpu %d stores key %d, its table lacks it", sn.Version, g, e)
							return
						}
					}
					if c.Table.Len() != stored {
						t.Errorf("version %d: gpu %d stores %d keys, its table holds %d", sn.Version, g, stored, c.Table.Len())
						return
					}
				}
				rd.snaps[pl] = published{sn.Version, sn.Hotness}
				pl, v := sys.PlacementVersion()
				rd.pairs[pl] = v
			}
		}()
	}

	cfg := cache.DefaultRefreshConfig()
	cfg.BatchEntries = 500
	for round := 1; round <= 8; round++ {
		h := hot[round%2]
		rep, err := sys.Refresh(h, 0.001, cfg)
		if err != nil {
			t.Errorf("refresh %d: %v", round, err)
			break
		}
		// The one writer reads back what it published.
		pl, v := sys.PlacementVersion()
		if want := uint64(round + 1); v != want || rep.Version != want {
			t.Errorf("refresh %d published version %d, reported %d; want %d", round, v, rep.Version, want)
			break
		}
		recorded[pl] = published{v, h}
	}
	close(stop)
	wg.Wait()
	if t.Failed() {
		return
	}

	for _, rd := range readers {
		for pl, got := range rd.snaps {
			want, ok := recorded[pl]
			if !ok {
				t.Fatalf("a reader saw a placement the writer never published (version %d)", got.version)
			}
			if got.version != want.version || &got.hot[0] != &want.hot[0] {
				t.Fatalf("a reader saw version %d for the placement published as %d, or another refresh's hotness", got.version, want.version)
			}
		}
		for pl, v := range rd.pairs {
			if want := recorded[pl].version; v != want {
				t.Fatalf("PlacementVersion paired version %d with the placement published as %d", v, want)
			}
		}
	}
}
