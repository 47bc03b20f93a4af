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
// attached and checks the event stream: every flushed batch lands in the
// worker's ring with sane fields, queue samples ride along, and each batch
// event's (gpu, seq) pair resolves to the matching timeline span tree — the
// exemplar linkage diagnostic bundles rely on.
func TestServeFlightEvents(t *testing.T) {
	sys, _ := buildFunctional(t, 3000)
	fl := flight.NewRecorder(sys.P.N, 256)
	rec := timeline.NewRecorder(sys.P.N, 4096)
	srv, err := New(sys, Config{Flight: fl, Timeline: rec})
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

	events := fl.Snapshot()
	var batches, queues []flight.Event
	for _, e := range events {
		switch e.Kind {
		case flight.KindBatch:
			batches = append(batches, e)
		case flight.KindQueue:
			queues = append(queues, e)
		}
	}
	if len(batches) == 0 {
		t.Fatal("no batch events recorded")
	}
	if len(queues) == 0 {
		t.Fatal("no queue events recorded")
	}
	for _, e := range batches {
		if e.GPU < 0 || int(e.GPU) >= sys.P.N || e.Seq <= 0 || e.UnixNanos == 0 {
			t.Fatalf("batch event identity = %+v", e)
		}
		if e.V[flight.BatchLatencySeconds] <= 0 ||
			e.V[flight.BatchRequests] < 1 ||
			e.V[flight.BatchUniqueKeys] < 1 ||
			e.V[flight.BatchUniqueKeys] > float64(len(keys)) {
			t.Fatalf("batch event payload = %+v", e)
		}
		split := e.V[flight.BatchLocalSeconds] + e.V[flight.BatchRemoteSeconds] + e.V[flight.BatchHostSeconds]
		if split <= 0 || e.V[flight.BatchSimSeconds] <= 0 {
			t.Fatalf("batch event tier split = %+v", e)
		}
	}

	// Every batch event resolves into the timeline: a "batch" root span on
	// the same GPU track carrying a matching seq arg.
	for _, e := range batches {
		found := false
		for _, sp := range rec.Events() {
			if sp.PID != timeline.ProcServe || sp.Name != "batch" || sp.TID != e.GPU {
				continue
			}
			for i := int32(0); i < sp.NArgs; i++ {
				if sp.Args[i].Key == "seq" && int64(sp.Args[i].Val) == e.Seq {
					found = true
				}
			}
		}
		if !found {
			t.Fatalf("batch event gpu=%d seq=%d has no matching timeline span", e.GPU, e.Seq)
		}
	}

	ex, ok := fl.SlowestBatch(0)
	if !ok || ex.V[flight.BatchLatencySeconds] <= 0 {
		t.Fatalf("SlowestBatch = %+v ok=%v", ex, ok)
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
			for _, e := range fl.Snapshot() {
				if e.Kind == 0 || e.Kind > flight.KindPrefetch {
					t.Errorf("torn event kind %d", e.Kind)
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
	if fl.Recorded() == 0 {
		t.Fatal("no events recorded")
	}
}

// TestServeFlightAllocParity is the acceptance gate for the flight
// recorder's zero-allocation claim: the steady-state flush path allocates
// exactly as much with flight recording enabled as without it.
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
	on := measure(build(flight.NewRecorder(2, 1024)))
	if on > off {
		t.Fatalf("flight recording adds allocations to the flush path: %.1f with, %.1f without", on, off)
	}
}
