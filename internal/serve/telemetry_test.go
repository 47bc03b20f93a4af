package serve

import (
	"errors"
	"testing"

	"ugache/internal/cache"
	"ugache/internal/core"
	"ugache/internal/flight"
	"ugache/internal/platform"
	"ugache/internal/telemetry"
)

func sampleValue(t *testing.T, reg *telemetry.Registry, name string) float64 {
	t.Helper()
	for _, s := range reg.Samples() {
		if s.Name == name {
			return s.Value
		}
	}
	t.Fatalf("metric %s not registered", name)
	return 0
}

// TestServeTelemetry drives the instrumented engine end to end and checks
// the whole surface: coalescing counters, fill reasons, the latency
// histogram, the per-tier extraction split, and the batch records.
func TestServeTelemetry(t *testing.T) {
	reg := telemetry.NewRegistry(4)
	sys, err := core.Build(core.Config{
		Platform:   platform.ServerA(),
		Hotness:    testHotness(2000, 1.1, 3),
		EntryBytes: 64,
		CacheRatio: 0.1,
		Telemetry:  reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	sampler := cache.NewHotnessSampler(2000, 1)
	srv, err := New(sys, Config{
		MaxBatchKeys: 1 << 20,
		Telemetry:    reg,
		Sampler:      sampler,
	})
	if err != nil {
		t.Fatal(err)
	}

	const reqs = 24
	chans := make([]<-chan Result, reqs)
	for i := 0; i < reqs; i++ {
		chans[i] = srv.Handle(i%sys.P.N, []int64{int64(i), int64(i + 100), int64(i % 3)})
	}
	for i, ch := range chans {
		if res := <-ch; res.Err != nil {
			t.Fatalf("request %d: %v", i, res.Err)
		}
	}
	srv.Close()

	if got := sampleValue(t, reg, "serve_requests_total"); got != reqs {
		t.Fatalf("serve_requests_total %g, want %d", got, reqs)
	}
	if got := sampleValue(t, reg, "serve_requested_keys_total"); got != 3*reqs {
		t.Fatalf("serve_requested_keys_total %g, want %d", got, 3*reqs)
	}
	uniq := sampleValue(t, reg, "serve_unique_keys_total")
	if uniq <= 0 || uniq > 3*reqs {
		t.Fatalf("serve_unique_keys_total %g out of range", uniq)
	}
	batches := sampleValue(t, reg, "serve_batches_total")
	if batches <= 0 || batches > reqs {
		t.Fatalf("serve_batches_total %g for %d requests", batches, reqs)
	}
	fills := sampleValue(t, reg, "serve_batch_fill_full_total") +
		sampleValue(t, reg, "serve_batch_fill_idle_total") +
		sampleValue(t, reg, "serve_batch_fill_drain_total")
	if fills != batches {
		t.Fatalf("fill reasons sum %g, batches %g", fills, batches)
	}
	if got := sampleValue(t, reg, "serve_request_latency_seconds_count"); got != reqs {
		t.Fatalf("latency observations %g, want %d", got, reqs)
	}
	if p99 := sampleValue(t, reg, "serve_request_latency_seconds_p99"); p99 <= 0 {
		t.Fatalf("latency p99 %g", p99)
	}
	if got := sampleValue(t, reg, "serve_sim_seconds_total"); got <= 0 {
		t.Fatalf("serve_sim_seconds_total %g", got)
	}

	// Fill-source split: with lookahead off every unique key is a demand
	// miss and no key is a prefetch hit; the two always sum to the unique
	// total.
	hitFill := sampleValue(t, reg, "serve_fill_prefetch_hit")
	missFill := sampleValue(t, reg, "serve_fill_demand_miss")
	if hitFill != 0 {
		t.Fatalf("serve_fill_prefetch_hit %g with lookahead disabled", hitFill)
	}
	if missFill != uniq {
		t.Fatalf("serve_fill_demand_miss %g, want %g", missFill, uniq)
	}

	// Core-level split: every unique key landed in exactly one tier.
	tiers := sampleValue(t, reg, "core_hit_local_keys_total") +
		sampleValue(t, reg, "core_hit_remote_keys_total") +
		sampleValue(t, reg, "core_hit_host_keys_total")
	if tiers != uniq {
		t.Fatalf("tier keys %g, unique keys %g", tiers, uniq)
	}
	if got := sampleValue(t, reg, "core_extract_batches_total"); got != batches {
		t.Fatalf("core_extract_batches_total %g, serve batches %g", got, batches)
	}

	// Batch records: they exist and are internally consistent.
	traces := srv.Trace().Snapshot(nil)
	if len(traces) == 0 {
		t.Fatal("no batch traces recorded")
	}
	var traceReqs int
	for _, tr := range traces {
		traceReqs += tr.Requests
		if tr.UniqueKeys <= 0 || tr.RequestedKeys < tr.UniqueKeys {
			t.Fatalf("inconsistent trace %+v", tr)
		}
		gotBytes := tr.TierBytes[platform.TierLocal] + tr.TierBytes[platform.TierRemote] + tr.TierBytes[platform.TierHost]
		if want := float64(tr.UniqueKeys * 64); gotBytes != want {
			t.Fatalf("trace tier bytes %g, want %g", gotBytes, want)
		}
		if tr.SimSeconds <= 0 {
			t.Fatalf("trace without sim time: %+v", tr)
		}
	}
	if traceReqs != reqs {
		t.Fatalf("traced requests %d, want %d (every batch leaves a record)", traceReqs, reqs)
	}

	// Sampler wiring: every flushed batch was observed, shard-per-worker.
	if sampler.Batches() != int(batches) {
		t.Fatalf("sampler observed %d batches, want %g", sampler.Batches(), batches)
	}
	if _, err := sampler.Hotness(); err != nil {
		t.Fatal(err)
	}
}

// TestServeCounterConservation pins the north-star identity on the serve
// counters: every request admission was asked to take is counted exactly
// once, as served, shed or failed. The failures are injected host-read
// errors under one coalesced batch.
func TestServeCounterConservation(t *testing.T) {
	reg := telemetry.NewRegistry(1)
	srv, gate, _ := heldServer(t, Config{QueueDepth: 2, Telemetry: reg})
	parked := parkWorker(t, srv, gate)
	host := hostKey(t, srv)
	doomed := []<-chan Result{srv.Handle(0, []int64{1}), srv.Handle(0, []int64{host})}
	if res := <-srv.Handle(0, []int64{2}); !errors.Is(res.Err, ErrOverload) {
		t.Fatalf("full ring: err %v, want ErrOverload", res.Err)
	}
	gate.failing.Store(true) // the held read is already past the check
	gate.open()

	if res := <-parked; res.Err != nil {
		t.Fatalf("parking request: %v", res.Err)
	}
	for i, ch := range doomed {
		if res := <-ch; !errors.Is(res.Err, errInjected) {
			t.Fatalf("request %d: err %v, want the injected read failure", i, res.Err)
		}
	}
	const sent = 4
	served := sampleValue(t, reg, "serve_requests_total")
	shed := sampleValue(t, reg, "serve_rejected_total")
	failed := sampleValue(t, reg, "serve_failed_total")
	if served != 1 || shed != 1 || failed != 2 || served+shed+failed != sent {
		t.Fatalf("served %g + shed %g + failed %g, want 1 + 1 + 2 = %d sent", served, shed, failed, sent)
	}
}

// TestServeTelemetryPrefetchFillSplit drives a lookahead-enabled server
// with a perfectly announced stream and checks the fill-source counters:
// prefetch hits appear, and hits + demand misses always equal the unique
// total.
func TestServeTelemetryPrefetchFillSplit(t *testing.T) {
	reg := telemetry.NewRegistry(4)
	sys, err := core.Build(core.Config{
		Platform:   platform.ServerA(),
		Hotness:    testHotness(2000, 1.1, 3),
		EntryBytes: 64,
		CacheRatio: 0.1,
		Telemetry:  reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(sys, Config{
		MaxBatchKeys: 1 << 20,
		Telemetry:    reg,
		Lookahead:    2,
	})
	if err != nil {
		t.Fatal(err)
	}
	keys := []int64{5, 17, 101, 999, 1500}
	if !srv.Prefetch(0, keys) {
		t.Fatal("prefetch window rejected")
	}
	srv.WaitPrefetch(0)
	if _, err := srv.Lookup(0, keys); err != nil {
		t.Fatal(err)
	}
	srv.Close()

	uniq := sampleValue(t, reg, "serve_unique_keys_total")
	hitFill := sampleValue(t, reg, "serve_fill_prefetch_hit")
	missFill := sampleValue(t, reg, "serve_fill_demand_miss")
	if hitFill+missFill != uniq {
		t.Fatalf("fill split %g + %g != unique %g", hitFill, missFill, uniq)
	}
	if hitFill == 0 {
		t.Fatal("no prefetch hits despite a fully announced batch")
	}
	if got := sampleValue(t, reg, "serve_prefetch_windows_total"); got != 1 {
		t.Fatalf("serve_prefetch_windows_total %g, want 1", got)
	}
	if got := sampleValue(t, reg, "serve_prefetch_staged_keys_total"); got != hitFill {
		t.Fatalf("staged %g keys but %g hit — a perfectly announced stream should consume all of them", got, hitFill)
	}
}

// TestServeTelemetryTraceSampling pins what a flush records: exactly one
// record into its worker's ring (Recorded() == N after N flushes, and nowhere
// else), and, the link-flow span its recorder draws of every batch —
// one each, since a single key is read from a single source class.
func TestServeTelemetryTraceSampling(t *testing.T) {
	sys, err := core.Build(core.Config{
		Platform:   platform.ServerA(),
		Hotness:    testHotness(500, 1.1, 3),
		EntryBytes: 32,
		CacheRatio: 0.1,
	})
	if err != nil {
		t.Fatal(err)
	}
	fl, reg := flight.NewRecorder(sys.P.N, 256), telemetry.NewRegistry(sys.P.N)
	srv, err := New(sys, Config{MaxBatchKeys: 1, Flight: fl, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		if _, err := srv.Lookup(0, []int64{int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	srv.Close()
	linkFlows := 0
	_, events := flight.Draw(fl)
	for _, ev := range events {
		if ev.Name == "link-flow" {
			linkFlows++
		}
	}
	if linkFlows != 16 {
		t.Fatalf("%d link-flow spans for 16 single-key batches, want one each", linkFlows)
	}
	// 16 single-request batches on worker 0: 16 records there, none elsewhere.
	for g, ring := range srv.rings {
		if want := uint64(16); g == 0 && ring.Recorded() != want || g != 0 && ring.Recorded() != 0 {
			t.Fatalf("worker %d ring recorded %d", g, ring.Recorded())
		}
	}
	traces := srv.Trace().Snapshot(nil)
	if len(traces) != 16 {
		t.Fatalf("Trace() holds %d records, want 16", len(traces))
	}
	for i, tr := range traces {
		if tr.Seq != int64(i+1) || tr.GPU != 0 {
			t.Fatalf("record %d = %+v", i, tr)
		}
	}
	if reqs, batches := reg.Value("serve_requests_total"), reg.Value("serve_batches_total"); reqs != 16 || batches != 16 {
		t.Fatalf("serve_requests_total %g, serve_batches_total %g, want 16 and 16", reqs, batches)
	}
}
