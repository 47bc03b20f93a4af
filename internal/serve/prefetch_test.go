package serve

import (
	"bytes"
	"sync"
	"testing"

	"ugache/internal/rng"
	"ugache/internal/telemetry"
	"ugache/internal/workload"
)

// TestServePrefetchDisabled: a server built without lookahead rejects
// windows, exposes no arena, and WaitPrefetch is a no-op.
func TestServePrefetchDisabled(t *testing.T) {
	sys, _ := buildFunctional(t, 1000)
	srv, err := New(sys, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if srv.Prefetch(0, []int64{1, 2, 3}) {
		t.Fatal("Prefetch accepted with Lookahead=0")
	}
	if srv.StagingArena(0) != nil {
		t.Fatal("staging arena exists with Lookahead=0")
	}
	srv.WaitPrefetch(0) // must not block
	if _, err := srv.Lookup(0, []int64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
}

// TestServePrefetchFunctionalRows runs a perfectly announced stream against
// a functional system: every batch is prefetched, waited for, then served,
// and the returned rows must be byte-identical to the source table —
// staged hits must be indistinguishable from demand fills.
func TestServePrefetchFunctionalRows(t *testing.T) {
	sys, table := buildFunctional(t, 3000)
	reg := telemetry.NewRegistry(sys.P.N)
	srv, err := New(sys, Config{
		MaxBatchKeys: 1 << 20,
		Telemetry:    reg,
		Lookahead:    4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	r := rng.New(11)
	z, _ := workload.NewZipf(3000, 1.05)
	eb := table.EntryBytes()
	want := make([]byte, eb)
	for b := 0; b < 20; b++ {
		keys := make([]int64, 64)
		for j := range keys {
			keys[j] = z.Sample(r)
		}
		if !srv.Prefetch(0, keys) {
			t.Fatalf("batch %d: prefetch rejected", b)
		}
		srv.WaitPrefetch(0)
		res, err := srv.Lookup(0, keys)
		if err != nil {
			t.Fatal(err)
		}
		for j, k := range keys {
			table.ReadRow(k, want)
			if !bytes.Equal(res.Rows[j*eb:(j+1)*eb], want) {
				t.Fatalf("batch %d key %d: wrong row", b, k)
			}
		}
	}
	if hits := sampleValue(t, reg, "serve_fill_prefetch_hit"); hits == 0 {
		t.Fatal("perfectly announced stream produced zero prefetch hits")
	}
	if dropped := sampleValue(t, reg, "serve_prefetch_dropped_windows_total"); dropped != 0 {
		t.Fatalf("%g windows dropped despite WaitPrefetch pacing", dropped)
	}
	if errs := sampleValue(t, reg, "serve_prefetch_errors_total"); errs != 0 {
		t.Fatalf("%g prefetch errors", errs)
	}
}

// TestServePrefetchStaleServing pins the bounded-staleness contract end to
// end: rows staged under placement version v are consumed after a Refresh
// bumped the version, within the S-batch window, and are surfaced through
// the stale-serving counter and gauge.
func TestServePrefetchStaleServing(t *testing.T) {
	sys, table := buildFunctional(t, 3000)
	reg := telemetry.NewRegistry(sys.P.N)
	srv, err := New(sys, Config{
		MaxBatchKeys: 1 << 20,
		Telemetry:    reg,
		Lookahead:    2,
		StaleBatches: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	keys := []int64{2999, 2500, 2001, 1777, 1234}
	if !srv.Prefetch(0, keys) {
		t.Fatal("prefetch rejected")
	}
	srv.WaitPrefetch(0)
	staged := sampleValue(t, reg, "serve_prefetch_staged_keys_total")
	if staged == 0 {
		t.Fatal("nothing staged; pick colder keys")
	}
	// Swap the placement: every staged row is now from an outgoing version.
	if _, err := sys.Refresh(testHotness(3000, 0.8, 99), 0.001, quickRefreshConfig()); err != nil {
		t.Fatal(err)
	}
	res, err := srv.Lookup(0, keys)
	if err != nil {
		t.Fatal(err)
	}
	eb := table.EntryBytes()
	want := make([]byte, eb)
	for j, k := range keys {
		table.ReadRow(k, want)
		if !bytes.Equal(res.Rows[j*eb:(j+1)*eb], want) {
			t.Fatalf("stale-served key %d: wrong row", k)
		}
	}
	stale := sampleValue(t, reg, "serve_stale_served_keys_total")
	hits := sampleValue(t, reg, "serve_fill_prefetch_hit")
	if hits == 0 {
		t.Fatal("no staged hits survived the refresh despite S=8")
	}
	if stale != hits {
		t.Fatalf("stale served %g, want every one of the %g hits (all staged pre-refresh)", stale, hits)
	}

	// With S=0 the same sequence must instead discard the staged rows.
	reg0 := telemetry.NewRegistry(sys.P.N)
	srv0, err := New(sys, Config{
		MaxBatchKeys: 1 << 20,
		Lookahead:    2,
		StaleBatches: 0,
		Telemetry:    reg0,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv0.Close()
	if !srv0.Prefetch(0, keys) {
		t.Fatal("prefetch rejected")
	}
	srv0.WaitPrefetch(0)
	if _, err := sys.Refresh(testHotness(3000, 1.2, 7), 0.001, quickRefreshConfig()); err != nil {
		t.Fatal(err)
	}
	if _, err := srv0.Lookup(0, keys); err != nil {
		t.Fatal(err)
	}
	if got := sampleValue(t, reg0, "serve_stale_served_keys_total"); got != 0 {
		t.Fatalf("S=0 served %g stale keys", got)
	}
}

// TestStaleWindowCountsKeysNotFlushes: the staleness window is S batches of
// MaxBatchKeys keys of traffic, however many flushes carry them. With S = 1
// and MaxBatchKeys 4, rows staged before a refresh outlive eight one-key
// flushes (two batches' worth: clock 0, then 1) and die at the ninth; counted
// in flushes they would have died at the third.
func TestStaleWindowCountsKeysNotFlushes(t *testing.T) {
	sys, _ := buildFunctional(t, 3000)
	reg := telemetry.NewRegistry(sys.P.N)
	srv, err := New(sys, Config{MaxBatchKeys: 4, Lookahead: 4, StaleBatches: 1, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	keys := []int64{2999, 2888, 2777, 2666, 2555, 2444, 2333, 2000, 2111}
	if !srv.Prefetch(0, keys) {
		t.Fatal("prefetch rejected")
	}
	srv.WaitPrefetch(0)
	if staged := sampleValue(t, reg, "serve_prefetch_staged_keys_total"); int(staged) != len(keys) {
		t.Fatalf("staged %g of %d keys; pick colder keys", staged, len(keys))
	}
	if _, err := sys.Refresh(testHotness(3000, 0.8, 99), 0.001, quickRefreshConfig()); err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		if _, err := srv.Lookup(0, []int64{k}); err != nil {
			t.Fatal(err)
		}
	}
	// A flush bumps its counters and writes its record before it replies,
	// so the records of every answered lookup are there. They say which
	// flushes the staged rows served: the first eight, not the ninth.
	srv.Close()
	records := srv.Trace().Snapshot(nil)
	if len(records) != len(keys) {
		t.Fatalf("%d records for %d one-key flushes", len(records), len(keys))
	}
	for i, b := range records {
		want := 1
		if i >= 8 {
			want = 0
		}
		if b.PrefetchHits != want {
			t.Fatalf("one-key flush %d: %d staged hits, want %d (record %+v)", i+1, b.PrefetchHits, want, b)
		}
	}
	if got := sampleValue(t, reg, "serve_stale_served_keys_total"); got != 8 {
		t.Fatalf("%g keys served stale over %d one-key flushes, want 8", got, len(keys))
	}
}

// TestServePrefetchRefreshRace races the whole pipeline under -race:
// prefetch completions committing into the arenas, serving flushes
// consuming staged rows, and concurrent Refreshes swapping the placement
// underneath — returned rows must stay byte-correct throughout (the
// serve-level form of the staging-arena lifecycle property).
func TestServePrefetchRefreshRace(t *testing.T) {
	sys, table := buildFunctional(t, 2000)
	srv, err := New(sys, Config{
		MaxBatchKeys: 1 << 20,
		Lookahead:    3,
		StaleBatches: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	stop := make(chan struct{})
	var refresher sync.WaitGroup
	refresher.Add(1)
	go func() {
		defer refresher.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			alpha := 0.8 + 0.1*float64(i%5)
			if _, err := sys.Refresh(testHotness(2000, alpha, uint64(i+1)), 0.001, quickRefreshConfig()); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	const clients = 3
	errs := make(chan error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r := rng.New(uint64(c + 21))
			z, _ := workload.NewZipf(2000, 1.0)
			eb := table.EntryBytes()
			want := make([]byte, eb)
			g := c % sys.P.N
			for b := 0; b < 40; b++ {
				keys := make([]int64, 32)
				for j := range keys {
					keys[j] = z.Sample(r)
				}
				srv.Prefetch(g, keys) // advisory: drops are fine here
				res, err := srv.Lookup(g, keys)
				if err != nil {
					errs <- err
					return
				}
				for j, k := range keys {
					table.ReadRow(k, want)
					if !bytes.Equal(res.Rows[j*eb:(j+1)*eb], want) {
						t.Errorf("client %d batch %d key %d: wrong row under refresh race", c, b, k)
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	close(stop)
	refresher.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
