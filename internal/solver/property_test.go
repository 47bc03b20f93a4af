package solver

import (
	"math"
	"testing"

	"ugache/internal/platform"
	"ugache/internal/rng"
	"ugache/internal/workload"
)

// TestRandomInputsAllPoliciesValid fuzzes solver inputs (entry counts,
// skews, capacities, platforms) and checks that every policy emits a
// placement satisfying the §6.2 invariants.
func TestRandomInputsAllPoliciesValid(t *testing.T) {
	r := rng.New(2024)
	platforms := []*platform.Platform{platform.ServerA(), platform.ServerB(), platform.ServerC()}
	policies := []Policy{
		Replication{}, Partition{}, CliquePartition{}, RepPart{Candidates: 5},
		UGache{},
	}
	for trial := 0; trial < 25; trial++ {
		p := platforms[r.Intn(len(platforms))]
		n := 500 + r.Intn(20000)
		alpha := 0.5 + r.Float64()*1.2
		h := make(workload.Hotness, n)
		perm := r.Perm(n)
		for rank := 0; rank < n; rank++ {
			h[perm[rank]] = math.Pow(float64(rank+1), -alpha)
		}
		// A random fraction of entries is never accessed.
		for e := 0; e < n/10; e++ {
			h[r.Intn(n)] = 0
		}
		caps := make([]int64, p.N)
		for g := range caps {
			caps[g] = int64(r.Float64() * 0.3 * float64(n))
		}
		in := &Input{P: p, Hotness: h, EntryBytes: 8 * (1 + r.Intn(128)), Capacity: caps}
		for _, pol := range policies {
			pl, err := pol.Solve(in)
			if err != nil {
				t.Fatalf("trial %d %s on %s (n=%d): %v", trial, pol.Name(), p.Name, n, err)
			}
			if err := pl.Validate(in); err != nil {
				t.Fatalf("trial %d %s on %s: invalid: %v", trial, pol.Name(), p.Name, err)
			}
			// Times finite and non-negative.
			for g, et := range pl.EstTimes {
				if et < 0 || math.IsNaN(et) || math.IsInf(et, 0) {
					t.Fatalf("trial %d %s: est time gpu %d = %g", trial, pol.Name(), g, et)
				}
			}
		}
	}
}

// TestOptimalLPNoWorseOnSymmetricInputs: on a symmetric platform the
// reference policy's placement is modelled no slower than any other policy's.
// Hotness is what the system's producers emit, a per-batch presence
// probability (the harness's, a tenth of it zeroed); the tolerance is the realization's one entry per strip plus the
// capacity-edge cuts the baselines make inside what is one block to the LP
// (measured under 1e-3 over 150 such inputs). A vector whose first row alone
// carries a tenth of the traffic is outside the LP's premise — one row is not
// a divisible block — and there RepPart can win (CHANGES.md, PR 24).
func TestOptimalLPNoWorseOnSymmetricInputs(t *testing.T) {
	r := rng.New(2025)
	platforms := []*platform.Platform{platform.ServerA(), platform.ServerC()}
	others := []Policy{
		Replication{}, Partition{}, CliquePartition{}, RepPart{Candidates: 33},
		UGache{},
	}
	for trial := 0; trial < 25; trial++ {
		p := platforms[r.Intn(len(platforms))]
		n := 4000 + r.Intn(20000)
		alpha := 0.5 + r.Float64()*1.2
		h := presenceHotness(t, int64(n), alpha, r.Uint64())
		for e := 0; e < n/10; e++ {
			h[r.Intn(n)] = 0
		}
		in := &Input{P: p, Hotness: h, EntryBytes: 8 * (1 + r.Intn(128)),
			Capacity: uniformCapacity(p, n, 0.01+0.29*r.Float64())}
		opt := maxF(mustSolve(t, OptimalLP{}, in).EstTimes)
		for _, pol := range others {
			if est := maxF(mustSolve(t, pol, in).EstTimes); opt > est*(1+1e-3) {
				t.Errorf("trial %d on %s (n=%d alpha=%.2f cap=%d): optimal-lp %g, %s %g",
					trial, p.Name, n, alpha, in.Capacity[0], opt, pol.Name(), est)
			}
		}
	}
}

// TestZeroCapacityDegradesToHost checks that with no cache at all, every
// policy routes everything to host and the model prices it identically.
func TestZeroCapacityDegradesToHost(t *testing.T) {
	p := platform.ServerC()
	in := testInput(t, p, 2000, 1.1, 0)
	for g := range in.Capacity {
		in.Capacity[g] = 0
	}
	for _, pol := range []Policy{Replication{}, Partition{}, UGache{}} {
		pl := mustSolve(t, pol, in)
		st := pl.Stats(in.Hotness)
		for g := range st {
			if st[g].Host < 1-1e-9 {
				t.Fatalf("%s: gpu %d host share %g with zero capacity", pol.Name(), g, st[g].Host)
			}
		}
	}
}

// TestOverflowingHotnessStillPlaces: hotness whose sums overflow to +Inf
// (each entry finite, so the input is valid) prices every RepPart candidate at
// +Inf; the scan still returns one, so RepPart — and UGache, which falls back
// to it on Server B — emit a valid placement rather than an empty one.
func TestOverflowingHotnessStillPlaces(t *testing.T) {
	for _, p := range []*platform.Platform{platform.ServerA(), platform.ServerB()} {
		h := make(workload.Hotness, 1000)
		for i := range h {
			h[i] = math.MaxFloat64 / 2
		}
		in := &Input{P: p, Hotness: h, EntryBytes: 512, Capacity: uniformCapacity(p, len(h), 0.1)}
		for _, pol := range []Policy{RepPart{}, UGache{}} {
			mustSolve(t, pol, in)
		}
	}
}

// TestFullCapacityAllLocal checks that with room for everything, UGache
// replicates everything and never touches remote or host.
func TestFullCapacityAllLocal(t *testing.T) {
	p := platform.ServerC()
	in := testInput(t, p, 2000, 1.1, 1.0)
	pl := mustSolve(t, UGache{}, in)
	st := pl.Stats(in.Hotness)
	for g := range st {
		if st[g].Local < 1-1e-6 {
			t.Fatalf("gpu %d local share %g with full capacity", g, st[g].Local)
		}
	}
}

// TestUGacheNeverWorseThanBaselinesOnModel sweeps random instances on the
// three servers and their 2-node clusters and checks the defining guarantee:
// UGache's modelled makespan is never worse than clique partition's,
// replication's, or rep-part's — to the bit, with no slack. UGache keeps the
// LP only where it is no slower than its 33-point scan, and at uniform
// capacities that scan's first and last split points are CliquePartition and
// Replication block for block, while RepPart{}'s 17 points are among its 33
// (k/16 == 2k/32 exactly in float64).
func TestUGacheNeverWorseThanBaselinesOnModel(t *testing.T) {
	var platforms []*platform.Platform
	for _, cfg := range []platform.Config{platform.ServerCConfig(), platform.ServerAConfig(), platform.ServerBConfig()} {
		p, err := platform.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		twin, err := platform.ClusterOf(cfg, platform.DefaultNetwork(2))
		if err != nil {
			t.Fatal(err)
		}
		platforms = append(platforms, p, twin)
	}
	r := rng.New(31)
	for trial := 0; trial < 18; trial++ {
		p := platforms[trial%len(platforms)]
		n := 2000 + r.Intn(30000)
		alpha := 0.6 + r.Float64()
		ratio := 0.01 + r.Float64()*0.25
		in := &Input{
			P:          p,
			Hotness:    zipfHotness(n, alpha, 100000, r.Uint64()),
			EntryBytes: 256,
			Capacity:   make([]int64, p.N),
		}
		for g := range in.Capacity {
			in.Capacity[g] = int64(ratio * float64(n))
		}
		ug := mustSolve(t, UGache{}, in)
		for _, pol := range []Policy{Replication{}, CliquePartition{}, RepPart{}} {
			base := mustSolve(t, pol, in)
			if maxF(ug.EstTimes) > maxF(base.EstTimes) {
				t.Fatalf("trial %d on %s (n=%d α=%.2f ratio=%.2f): ugache %g worse than %s %g",
					trial, p.Name, n, alpha, ratio,
					maxF(ug.EstTimes), pol.Name(), maxF(base.EstTimes))
			}
		}
	}
}

// TestLowerBoundIsABound: wherever UGache reports an LP lower bound, the
// realized modelled time respects it.
func TestLowerBoundIsABound(t *testing.T) {
	p := platform.ServerC()
	for _, ratio := range []float64{0.02, 0.08, 0.2} {
		in := testInput(t, p, 20000, 1.2, ratio)
		pl := mustSolve(t, UGache{}, in)
		if pl.LowerBound == 0 {
			t.Fatal("symmetric platform should report a bound")
		}
		if got := maxF(pl.EstTimes); got < pl.LowerBound*(1-1e-6) {
			t.Fatalf("ratio %g: realized %g beats its own bound %g", ratio, got, pl.LowerBound)
		}
	}
}

// TestHeterogeneousCapacities checks that unequal per-GPU budgets (e.g. a
// deployment sharing GPUs with other jobs) are respected and still yield a
// competitive placement from the RepPart scan, UGache's answer where the LP
// does not apply (867 us here, against replication's 1,813).
func TestHeterogeneousCapacities(t *testing.T) {
	p := platform.ServerC()
	in := testInput(t, p, 20000, 1.1, 0.08)
	// GPU 0 has almost no budget; GPU 7 has double.
	in.Capacity[0] = 50
	in.Capacity[7] *= 2
	pl := mustSolve(t, UGache{}, in)
	used := pl.CapacityUsed()
	if used[0] > 50 {
		t.Fatalf("gpu0 used %d of 50", used[0])
	}
	// The starved GPU still reads hot entries from its peers.
	st := pl.Stats(in.Hotness)
	if st[0].Remote < 0.2 {
		t.Fatalf("starved gpu should lean on peers: %+v", st[0])
	}
	// And the placement beats plain replication (which wastes the big GPU).
	rep := mustSolve(t, Replication{}, in)
	if maxF(pl.EstTimes) > maxF(rep.EstTimes)*1.03 {
		t.Fatalf("ugache %g worse than replication %g under heterogeneity",
			maxF(pl.EstTimes), maxF(rep.EstTimes))
	}
}
