package serve

import (
	"testing"

	"ugache/internal/core"
	"ugache/internal/emb"
	"ugache/internal/flight"
	"ugache/internal/platform"
	"ugache/internal/rng"
	"ugache/internal/timeline"
	"ugache/internal/workload"
)

// Serving-engine hot-path microbenchmarks (run with `make bench`). The
// coalesced-lookup benchmarks drive the full flush path — dedup, simulated
// extraction, functional gather, fan-out — one synchronous request per
// batch (MaxBatchKeys 1: every request is its own flush).
// Results are tracked in BENCH_hotpath.json at the repo root.

func buildBenchServer(b *testing.B, n int, functional bool, fl *flight.Recorder, tl *timeline.Recorder) *Server {
	b.Helper()
	cfg := core.Config{
		Platform:   platform.ServerA(),
		Hotness:    testHotness(n, 1.1, 3),
		EntryBytes: 128,
		CacheRatio: 0.1,
	}
	if functional {
		table, err := emb.NewMaterialized("bench", int64(n), 32, emb.Float32, 7)
		if err != nil {
			b.Fatal(err)
		}
		cfg.EntryBytes = table.EntryBytes()
		cfg.Source = table
	}
	sys, err := core.Build(cfg)
	if err != nil {
		b.Fatal(err)
	}
	srv, err := New(sys, Config{MaxBatchKeys: 1, Flight: fl, Timeline: tl})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(srv.Close)
	return srv
}

func benchRequests(n int64, reqs, keysPer int, seed uint64) [][]int64 {
	z, _ := workload.NewZipf(n, 1.1)
	r := rng.New(seed)
	out := make([][]int64, reqs)
	for i := range out {
		out[i] = make([]int64, keysPer)
		for j := range out[i] {
			out[i][j] = z.Sample(r)
		}
	}
	return out
}

// BenchmarkServeCoalescedTiming is the timing-only serve path: one request
// per coalesced batch, no functional gather.
func BenchmarkServeCoalescedTiming(b *testing.B) {
	srv := buildBenchServer(b, 20000, false, nil, nil)
	reqs := benchRequests(20000, 64, 256, 11)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := srv.Lookup(0, reqs[i%len(reqs)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServeCoalescedFunctional is the full serve path: dedup,
// simulated extraction, functional gather and per-request row fan-out.
func BenchmarkServeCoalescedFunctional(b *testing.B) {
	srv := buildBenchServer(b, 20000, true, nil, nil)
	reqs := benchRequests(20000, 64, 256, 11)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := srv.Lookup(0, reqs[i%len(reqs)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServeCoalescedTimingFlight is the timing path with the flight
// recorder attached — allocs/op must match BenchmarkServeCoalescedTiming
// (the recorder's zero-allocation contract, also pinned by
// TestServeFlightAllocParity).
func BenchmarkServeCoalescedTimingFlight(b *testing.B) {
	srv := buildBenchServer(b, 20000, false, flight.NewRecorder(4, flight.DefaultDepth), nil)
	reqs := benchRequests(20000, 64, 256, 11)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := srv.Lookup(0, reqs[i%len(reqs)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServeCoalescedTimingTraced is the timing path with the flight
// recorder and a timeline attached, the way ugache-serve runs by default:
// the timeline draws from the records at export, so the flush path — and
// its allocs/op — should read as the Flight row's.
func BenchmarkServeCoalescedTimingTraced(b *testing.B) {
	srv := buildBenchServer(b, 20000, false, flight.NewRecorder(4, flight.DefaultDepth), timeline.NewRecorder())
	reqs := benchRequests(20000, 64, 256, 11)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := srv.Lookup(0, reqs[i%len(reqs)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServeCoalescedFunctionalFlight is the full serve path with the
// flight recorder attached.
func BenchmarkServeCoalescedFunctionalFlight(b *testing.B) {
	srv := buildBenchServer(b, 20000, true, flight.NewRecorder(4, flight.DefaultDepth), nil)
	reqs := benchRequests(20000, 64, 256, 11)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := srv.Lookup(0, reqs[i%len(reqs)]); err != nil {
			b.Fatal(err)
		}
	}
}
