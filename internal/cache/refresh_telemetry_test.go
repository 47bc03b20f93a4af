package cache_test

import (
	"math"
	"testing"

	"ugache/internal/cache"
	"ugache/internal/core"
	"ugache/internal/flight"
	"ugache/internal/platform"
	"ugache/internal/rng"
	"ugache/internal/telemetry"
	"ugache/internal/timeline"
	"ugache/internal/workload"
)

// The cache_refresh_* series describe a cache refresh, but the cache no
// longer publishes them: core.System.Refresh, which measures the re-solve
// the refresh applies, writes them from the report. These tests hold the
// series to the report from the outside, through the one writer.

// refreshSystem builds a ServerC system over a Zipf hotness, with a telemetry
// registry and a flight recorder, and returns it with that hotness and its
// reverse, which moves most of the cached entries when refreshed to.
func refreshSystem(t *testing.T) (*core.System, *telemetry.Registry, *flight.Recorder, workload.Hotness, workload.Hotness) {
	t.Helper()
	const n = 2000
	p := platform.ServerC()
	perm := rng.New(9).Perm(n)
	h := make(workload.Hotness, n)
	for rank := 0; rank < n; rank++ {
		h[perm[rank]] = math.Pow(float64(rank+1), -1.1)
	}
	reg := telemetry.NewRegistry(p.N)
	fl := flight.NewRecorder(1, 8)
	sys, err := core.Build(core.Config{
		Platform: p, Hotness: h, EntryBytes: 64, CacheRatio: 0.1, Telemetry: reg, Flight: fl,
	})
	if err != nil {
		t.Fatal(err)
	}
	h2 := make(workload.Hotness, n)
	for i := range h2 {
		h2[i] = h[n-1-i]
	}
	return sys, reg, fl, h, h2
}

func samples(reg *telemetry.Registry) map[string]float64 {
	vals := map[string]float64{}
	for _, s := range reg.Samples() {
		vals[s.Name] = s.Value
	}
	return vals
}

// TestRefreshTelemetryGauges checks a refresh publishes its report.
func TestRefreshTelemetryGauges(t *testing.T) {
	sys, reg, _, _, h2 := refreshSystem(t)
	cfg := cache.DefaultRefreshConfig()
	cfg.BatchEntries = 100
	rep, err := sys.Refresh(h2, 0.001, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.EvictedEntries == 0 {
		t.Fatalf("report %+v: the reversed hotness evicted nothing", rep)
	}
	vals := samples(reg)
	if vals["cache_refresh_total"] != 1 {
		t.Fatalf("refresh counter %g", vals["cache_refresh_total"])
	}
	if vals["cache_refresh_active"] != 0 {
		t.Fatal("refresh still marked active")
	}
	if vals["cache_refresh_last_duration_seconds"] != rep.Duration ||
		vals["cache_refresh_last_update_seconds"] != rep.UpdateSeconds ||
		vals["cache_refresh_last_evicted_entries"] != float64(rep.EvictedEntries) {
		t.Fatalf("gauges %v do not match report %+v", vals, rep)
	}
}

// TestRefreshSolveStats: the measured solve of each refresh flows into the
// report, the solve-wall gauge, and the refresh-solve span drawn from the
// refresh's flight record — the real solve cost next to the simulated
// Fig. 17 replay. The gauge describes the last refresh, so a second refresh
// replaces the first one's wall time rather than leaving it published
// against the wrong placement.
func TestRefreshSolveStats(t *testing.T) {
	sys, reg, fl, h, h2 := refreshSystem(t)
	cfg := cache.DefaultRefreshConfig()
	cfg.BatchEntries = 200
	for i, hot := range []workload.Hotness{h2, h} {
		rep, err := sys.Refresh(hot, 0.001, cfg)
		if err != nil {
			t.Fatal(err)
		}
		wall := rep.Solve.WallSeconds
		if wall <= 0 {
			t.Fatalf("refresh %d: solve wall %g, want the measured re-solve", i, wall)
		}
		if g := samples(reg)["cache_refresh_last_solve_wall_seconds"]; g != wall {
			t.Fatalf("refresh %d: solve wall gauge %g, want %g", i, g, wall)
		}
		var solve *timeline.Event
		_, events := flight.Draw(fl)
		for _, ev := range events {
			if ev.Name == "refresh-solve" {
				ev := ev
				solve = &ev // the last one drawn is this refresh's
			}
		}
		if solve == nil {
			t.Fatalf("refresh %d: missing refresh-solve span", i)
		}
		if solve.NArgs != 1 || solve.Args[0].Key != "solve_wall_seconds" || solve.Args[0].Val != wall {
			t.Fatalf("refresh %d: refresh-solve span args %v, want solve_wall_seconds %g", i, solve.Args[:solve.NArgs], wall)
		}
	}
	if total := samples(reg)["cache_refresh_total"]; total != 2 {
		t.Fatalf("refresh counter %g after two refreshes", total)
	}
}
