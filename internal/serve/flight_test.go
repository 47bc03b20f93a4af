package serve

import (
	"sync"
	"testing"

	"ugache/internal/core"
	"ugache/internal/flight"
	"ugache/internal/platform"
	"ugache/internal/timeline"
)

// TestServeFlightEvents drives a functional server with the flight recorder
// attached and checks the record stream: every flushed batch lands in its
// worker's ring with sane fields, its stages add up to its latency, and each
// record's (gpu, seq) pair resolves to the matching timeline span tree — the
// exemplar linkage diagnostic bundles rely on.
func TestServeFlightEvents(t *testing.T) {
	sys, _ := buildFunctional(t, 3000)
	fl := flight.NewRecorder(sys.P.N, 256)
	srv, err := New(sys, Config{Flight: fl})
	if err != nil {
		t.Fatal(err)
	}
	keys := []int64{1, 7, 7, 2999, 42, 0}
	for i := 0; i < 4; i++ {
		for g := 0; g < 2; g++ {
			if _, err := srv.Lookup(g, keys); err != nil {
				t.Fatal(err)
			}
		}
	}
	srv.Close()

	batches := fl.Trace().Snapshot(nil)
	if len(batches) != 8 || fl.Recorded() != 8 {
		t.Fatalf("%d records held, %d recorded, want 8 and 8 (one per flush, nothing else)", len(batches), fl.Recorded())
	}
	for _, b := range batches {
		if b.GPU < 0 || b.GPU >= 2 || b.Seq <= 0 || b.UnixNanos == 0 {
			t.Fatalf("record identity = %+v", b)
		}
		if b.Requests != 1 || b.RequestedKeys != len(keys) || b.UniqueKeys != 5 || b.Reason != flight.FillIdle {
			t.Fatalf("record formation = %+v", b)
		}
		if b.QueueWaitSeconds <= 0 || b.CoalesceSeconds <= 0 || b.ExtractSeconds <= 0 ||
			b.GatherSeconds <= 0 || b.ReplySeconds <= 0 {
			t.Fatalf("record stages = %+v", b)
		}
		if split := b.TierSeconds[platform.TierLocal] + b.TierSeconds[platform.TierRemote] + b.TierSeconds[platform.TierHost]; split <= 0 || b.SimSeconds <= 0 {
			t.Fatalf("record tier split = %+v", b)
		}
	}

	// Every record resolves into the timeline: a "batch" root span on the
	// same GPU track carrying a matching seq arg, as long as its latency.
	_, spans := flight.Draw(fl)
	for _, b := range batches {
		found := false
		for _, sp := range spans {
			if sp.PID != timeline.ProcServe || sp.Name != "batch" || sp.TID != int32(b.GPU) {
				continue
			}
			for i := int32(0); i < sp.NArgs; i++ {
				if sp.Args[i].Key == "seq" && int64(sp.Args[i].Val) == b.Seq && sp.Dur == b.LatencySeconds() {
					found = true
				}
			}
		}
		if !found {
			t.Fatalf("record gpu=%d seq=%d has no matching timeline span", b.GPU, b.Seq)
		}
	}
}

// TestResultFindsItsBatchInTrace: a flush writes its record before it sends
// the replies, so a caller holding its Result finds its batch in Trace — no
// Close, no wait. Sequential requests on one GPU are one flush each, so the
// i-th request's batch is the ring's i-th record.
func TestResultFindsItsBatchInTrace(t *testing.T) {
	sys, _ := buildFunctional(t, 2000)
	srv, err := New(sys, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for i := 1; i <= 200; i++ {
		keys := []int64{int64(i), int64(i), 1999}
		res, err := srv.Lookup(0, keys)
		if err != nil {
			t.Fatal(err)
		}
		recs := srv.Trace().Snapshot(nil)
		if len(recs) == 0 {
			t.Fatalf("request %d: Trace holds no record after its Result arrived", i)
		}
		b := recs[len(recs)-1]
		if b.Seq != int64(i) || b.Requests != 1 || b.RequestedKeys != len(keys) || b.UniqueKeys != res.BatchKeys {
			t.Fatalf("request %d (batch of %d unique keys): the newest record is %+v", i, res.BatchKeys, b)
		}
	}
}

// TestServeFlightConcurrent hammers lookups on every GPU while a reader
// drains snapshots — the -race proof that worker rings (single producer) and
// concurrent Snapshot readers coexist, mirroring the live /debug/flight
// endpoint scraping a serving process.
func TestServeFlightConcurrent(t *testing.T) {
	sys, _ := buildFunctional(t, 2000)
	fl := flight.NewRecorder(sys.P.N, 64)
	srv, err := New(sys, Config{Flight: fl})
	if err != nil {
		t.Fatal(err)
	}
	var lookups, reader sync.WaitGroup
	stop := make(chan struct{})
	reader.Add(1)
	go func() {
		defer reader.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, b := range srv.Trace().Snapshot(nil) {
				if b.Requests != 1 || b.RequestedKeys != 3 || b.UniqueKeys != 3 || b.UnixNanos == 0 {
					t.Errorf("torn record %+v", b)
					return
				}
			}
		}
	}()
	for g := 0; g < sys.P.N; g++ {
		lookups.Add(1)
		go func(g int) {
			defer lookups.Done()
			keys := []int64{int64(g), 5, 900}
			for i := 0; i < 50; i++ {
				if _, err := srv.Lookup(g, keys); err != nil {
					t.Errorf("gpu %d: %v", g, err)
					return
				}
			}
		}(g)
	}
	lookups.Wait()
	close(stop)
	reader.Wait()
	srv.Close()
	if got, want := fl.Recorded(), uint64(50*sys.P.N); got != want {
		t.Fatalf("%d records, want %d", got, want)
	}
}

// TestServersShareRecorder: two servers on one recorder each claim their own
// rings, so every ring keeps a single producer. With flushes interleaved
// (run under -race), each server's Trace() holds exactly its own batches —
// the key count tells them apart — none torn; a third server finds no ring
// left and is refused.
func TestServersShareRecorder(t *testing.T) {
	sysA, _ := buildFunctional(t, 2000)
	sysB, _ := buildFunctional(t, 2000)
	n := sysA.P.N
	fl := flight.NewRecorder(2*n, 64)
	servers := make([]*Server, 2)
	for i, sys := range []*core.System{sysA, sysB} {
		srv, err := New(sys, Config{Flight: fl})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Close)
		servers[i] = srv
	}
	if _, err := New(sysA, Config{Flight: fl}); err == nil {
		t.Fatal("a third server claimed rings from an exhausted recorder")
	}
	const rounds = 40
	var wg sync.WaitGroup
	for i, srv := range servers {
		for g := 0; g < n; g++ {
			wg.Add(1)
			go func(i, g int, srv *Server) {
				defer wg.Done()
				keys := []int64{1, 2, 3, 4}[:2+i] // server 0: 2 keys a batch, server 1: 3
				for r := 0; r < rounds; r++ {
					if _, err := srv.Lookup(g, keys); err != nil {
						t.Errorf("server %d gpu %d: %v", i, g, err)
						return
					}
				}
			}(i, g, srv)
		}
	}
	wg.Wait()
	for i, srv := range servers {
		srv.Close()
		got := srv.Trace().Snapshot(nil)
		if len(got) != rounds*n {
			t.Fatalf("server %d holds %d records, want %d", i, len(got), rounds*n)
		}
		for _, b := range got {
			if b.RequestedKeys != 2+i || b.UniqueKeys != 2+i || b.Requests != 1 || b.Seq < 1 || b.Seq > rounds {
				t.Fatalf("server %d holds a record that is not its own: %+v", i, b)
			}
		}
	}
	if got := len(fl.Trace().Snapshot(nil)); got != 2*rounds*n {
		t.Fatalf("recorder holds %d records, want %d", got, 2*rounds*n)
	}
}

// TestServeFlightAllocParity is the acceptance gate for the flight
// recorder's zero-allocation claim: the steady-state flush path allocates
// exactly as much with a caller's flight recorder as with the private one.
func TestServeFlightAllocParity(t *testing.T) {
	build := func(fl *flight.Recorder) *Server {
		sys, err := core.Build(core.Config{
			Platform:   platform.ServerA(),
			Hotness:    testHotness(3000, 1.1, 3),
			EntryBytes: 128,
			CacheRatio: 0.1,
		})
		if err != nil {
			t.Fatal(err)
		}
		srv, err := New(sys, Config{MaxBatchKeys: 1, Flight: fl})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Close)
		return srv
	}
	keys := []int64{1, 7, 7, 2999, 42, 0}
	measure := func(srv *Server) float64 {
		// Warm the path so lazy growth (scratch maps, rings) settles.
		for i := 0; i < 32; i++ {
			if _, err := srv.Lookup(0, keys); err != nil {
				t.Fatal(err)
			}
		}
		return testing.AllocsPerRun(200, func() {
			if _, err := srv.Lookup(0, keys); err != nil {
				t.Fatal(err)
			}
		})
	}
	off := measure(build(nil))
	on := measure(build(flight.NewRecorder(4, 1024)))
	if on > off {
		t.Fatalf("flight recording adds allocations to the flush path: %.1f with, %.1f without", on, off)
	}
}
