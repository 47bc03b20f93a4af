package extract

import (
	"math"
	"testing"

	"ugache/internal/platform"
	"ugache/internal/rng"
	"ugache/internal/sim"
	"ugache/internal/solver"
	"ugache/internal/workload"
)

// buildPlacement solves a UGache placement for tests.
func buildPlacement(t *testing.T, p *platform.Platform, n int, ratio float64, pol solver.Policy) (*solver.Placement, *solver.Input) {
	t.Helper()
	r := rng.New(7)
	perm := r.Perm(n)
	h := make(workload.Hotness, n)
	for rank := 0; rank < n; rank++ {
		h[perm[rank]] = math.Pow(float64(rank+1), -1.1)
	}
	scale := 100000 / h.Total()
	for i := range h {
		h[i] *= scale
	}
	caps := make([]int64, p.N)
	for g := range caps {
		caps[g] = int64(float64(n) * ratio)
	}
	in := &solver.Input{P: p, Hotness: h, EntryBytes: 512, Capacity: caps}
	pl, err := pol.Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	return pl, in
}

// genBatch draws a Zipf batch per GPU.
func genBatch(t *testing.T, n, keysPerGPU, gpus int, seed uint64) *Batch {
	t.Helper()
	z, err := workload.NewZipf(int64(n), 1.1)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(seed)
	b := &Batch{Keys: make([][]int64, gpus)}
	scratch := make(map[int64]struct{})
	for g := 0; g < gpus; g++ {
		keys := make([]int64, keysPerGPU)
		for i := range keys {
			keys[i] = z.Sample(r)
		}
		b.Keys[g] = workload.Unique(keys, scratch)
	}
	return b
}

func TestFactoredBasic(t *testing.T) {
	p := platform.ServerC()
	pl, _ := buildPlacement(t, p, 20000, 0.08, solver.UGache{})
	ex, err := New(p, pl)
	if err != nil {
		t.Fatal(err)
	}
	b := genBatch(t, 20000, 50000, p.N, 1)
	res, err := ex.Run(Factored, b, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Time <= 0 {
		t.Fatalf("time %g", res.Time)
	}
	for g, pt := range res.PerGPU {
		if pt <= 0 || pt > res.Time+1e-12 {
			t.Fatalf("gpu %d time %g vs makespan %g", g, pt, res.Time)
		}
	}
	// Bytes conservation: sum over sources equals unique keys × entry size.
	for g := range res.SrcBytes {
		sum := 0.0
		for _, v := range res.SrcBytes[g] {
			sum += v
		}
		want := float64(len(b.Keys[g])) * 512
		if math.Abs(sum-want) > 1 {
			t.Fatalf("gpu %d bytes %g, want %g", g, sum, want)
		}
	}
}

func TestFactoredBeatsPeerRandom(t *testing.T) {
	// The paper's Fig. 4 shape: factored < peer-random < message-based on
	// mixed local/remote/host traffic.
	for _, p := range []*platform.Platform{platform.ServerA(), platform.ServerC()} {
		// Full-coverage partition placement: remote traffic dominates, the
		// regime of Fig. 4. (With a host tail, the PCIe bound dominates all
		// mechanisms equally — the paper's own observation for 4×V100.)
		pl, _ := buildPlacement(t, p, 20000, 1.0/float64(p.N)+0.02, solver.Partition{})
		ex, err := New(p, pl)
		if err != nil {
			t.Fatal(err)
		}
		b := genBatch(t, 20000, 80000, p.N, 2)
		tf, err := ex.Run(Factored, b, nil)
		if err != nil {
			t.Fatal(err)
		}
		tp, err := ex.Run(PeerRandom, b, nil)
		if err != nil {
			t.Fatal(err)
		}
		tm, err := ex.Run(MessageBased, b, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !(tf.Time < tp.Time) {
			t.Fatalf("%s: factored %g not faster than peer %g", p.Name, tf.Time, tp.Time)
		}
		if !(tp.Time < tm.Time) {
			t.Fatalf("%s: peer %g not faster than message %g", p.Name, tp.Time, tm.Time)
		}
	}
}

func TestFactoredImprovesLinkUtilization(t *testing.T) {
	// Fig. 13: FEM raises PCIe and NVLink utilization vs the naive peer
	// mechanism.
	p := platform.ServerC()
	// Near-full-coverage partition: remote-dominated with a small host
	// tail, the Fig. 13 regime (both links active, neither PCIe-bound).
	pl, _ := buildPlacement(t, p, 20000, 0.115, solver.Partition{})
	ex, _ := New(p, pl)
	b := genBatch(t, 20000, 80000, p.N, 3)
	tf, err := ex.Run(Factored, b, nil)
	if err != nil {
		t.Fatal(err)
	}
	tp, err := ex.Run(PeerRandom, b, nil)
	if err != nil {
		t.Fatal(err)
	}
	nvF := tf.Utilization(p, p.NVLinkIDs())
	nvP := tp.Utilization(p, p.NVLinkIDs())
	if nvF <= nvP {
		t.Fatalf("NVLink utilization: factored %g <= peer %g", nvF, nvP)
	}
	pcF := tf.Utilization(p, p.PCIeIDs())
	pcP := tp.Utilization(p, p.PCIeIDs())
	if pcF <= pcP {
		t.Fatalf("PCIe utilization: factored %g <= peer %g", pcF, pcP)
	}
}

func TestMechanismsOnAllPlacements(t *testing.T) {
	// Every mechanism must run on every policy's placement on every server.
	pols := []solver.Policy{solver.Replication{}, solver.CliquePartition{}, solver.UGache{}}
	for _, p := range []*platform.Platform{platform.ServerA(), platform.ServerB(), platform.ServerC()} {
		for _, pol := range pols {
			pl, _ := buildPlacement(t, p, 8000, 0.05, pol)
			ex, err := New(p, pl)
			if err != nil {
				t.Fatal(err)
			}
			b := genBatch(t, 8000, 20000, p.N, 4)
			for _, m := range []Mechanism{Factored, PeerRandom, MessageBased} {
				res, err := ex.Run(m, b, nil)
				if err != nil {
					t.Fatalf("%s/%s/%s: %v", p.Name, pol.Name(), m, err)
				}
				if res.Time <= 0 || math.IsNaN(res.Time) {
					t.Fatalf("%s/%s/%s: time %g", p.Name, pol.Name(), m, res.Time)
				}
			}
		}
	}
}

func TestLocalOnlyBatch(t *testing.T) {
	// A batch fully covered by a replication cache uses no PCIe or NVLink.
	p := platform.ServerC()
	pl, _ := buildPlacement(t, p, 10000, 0.2, solver.Replication{})
	ex, _ := New(p, pl)
	// Only the hottest keys (all cached): ranks 0..99 map to some entries;
	// use ByRank to find them.
	keys := make([]int64, 100)
	for i := range keys {
		keys[i] = int64(pl.ByRank[i])
	}
	b := &Batch{Keys: make([][]int64, p.N)}
	for g := range b.Keys {
		b.Keys[g] = keys
	}
	res, err := ex.Run(Factored, b, nil)
	if err != nil {
		t.Fatal(err)
	}
	if u := res.Utilization(p, p.PCIeIDs()); u != 0 {
		t.Fatalf("PCIe used on local-only batch: %g", u)
	}
	if u := res.Utilization(p, p.NVLinkIDs()); u != 0 {
		t.Fatalf("NVLink used on local-only batch: %g", u)
	}
}

// TestUtilizationGuards: links with no capacity, or a result with no
// makespan, read 0 utilization, never ±Inf or NaN.
func TestUtilizationGuards(t *testing.T) {
	p := &platform.Platform{Topo: sim.Topology{Links: []sim.Link{{Name: "dead"}, {Name: "live", Capacity: 10}}}}
	res := &Result{Time: 2, LinkBytes: []float64{5, 10}}
	if u := res.Utilization(p, []sim.LinkID{0}); u != 0 {
		t.Fatalf("zero-capacity link utilization = %g, want 0", u)
	}
	if u := res.Utilization(p, []sim.LinkID{1}); u != 0.5 {
		t.Fatalf("live link utilization = %g, want 0.5", u)
	}
	empty := &Result{LinkBytes: []float64{0, 0}}
	if u := empty.Utilization(p, []sim.LinkID{0, 1}); u != 0 {
		t.Fatalf("zero-makespan utilization = %g, want 0", u)
	}
}

func TestBatchValidation(t *testing.T) {
	p := platform.ServerC()
	pl, _ := buildPlacement(t, p, 1000, 0.1, solver.Replication{})
	ex, _ := New(p, pl)
	if _, err := ex.Run(Factored, &Batch{Keys: [][]int64{{1}}}, nil); err == nil {
		t.Fatal("wrong GPU count accepted")
	}
	bad := &Batch{Keys: make([][]int64, p.N)}
	bad.Keys[0] = []int64{99999}
	if _, err := ex.Run(Factored, bad, nil); err == nil {
		t.Fatal("out-of-range key accepted")
	}
	if _, err := New(nil, pl); err == nil {
		t.Fatal("nil platform accepted")
	}
	if _, err := New(platform.ServerA(), pl); err == nil {
		t.Fatal("GPU-count mismatch accepted")
	}
}

// TestPeerRandomLinkBytesOnPhysicalLinks: PeerRandom runs on the
// platform's unorganized topology, whose link IDs are Topo's, so every byte
// it moves lands on a physical link. Over Servers A, B, C and a two-machine
// cluster of Server A, its LinkBytes has one slot per Topo link and totals
// the sum over demands of bytes × path hops.
func TestPeerRandomLinkBytesOnPhysicalLinks(t *testing.T) {
	twin, err := platform.ClusterOf(platform.ServerAConfig(), platform.DefaultNetwork(2))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []*platform.Platform{platform.ServerA(), platform.ServerB(), platform.ServerC(), twin} {
		pl, _ := buildPlacement(t, p, 20000, 0.04, solver.UGache{})
		ex, _ := New(p, pl)
		res, err := ex.Run(PeerRandom, genBatch(t, 20000, 60000, p.N, 5), nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.LinkBytes) != len(p.Topo.Links) {
			t.Fatalf("%s: %d link slots, topology has %d links", p.Name, len(res.LinkBytes), len(p.Topo.Links))
		}
		want, got := 0.0, 0.0
		for g, row := range res.SrcBytes {
			for j, bytes := range row {
				path, _ := p.Path(g, platform.SourceID(j))
				want += bytes * float64(len(path))
			}
		}
		for _, b := range res.LinkBytes {
			got += b
		}
		if want == 0 || math.Abs(got-want) > 1e-9*want {
			t.Fatalf("%s: links carry %g bytes, demands × hops = %g", p.Name, got, want)
		}
	}
}

func TestMechanismNames(t *testing.T) {
	for m, want := range map[Mechanism]string{
		Factored: "factored", PeerRandom: "peer-random", MessageBased: "message-based",
		FactoredStatic: "factored-static", 7: "mechanism(7)", -1: "mechanism(-1)",
	} {
		if got := m.String(); got != want {
			t.Errorf("Mechanism(%d).String() = %q, want %q", int(m), got, want)
		}
	}
}

func TestDeterministicExtraction(t *testing.T) {
	p := platform.ServerC()
	pl, _ := buildPlacement(t, p, 5000, 0.08, solver.UGache{})
	ex, _ := New(p, pl)
	b := genBatch(t, 5000, 10000, p.N, 6)
	r1, err := ex.Run(Factored, b, nil)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := ex.Run(Factored, b, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Time != r2.Time {
		t.Fatalf("nondeterministic: %g vs %g", r1.Time, r2.Time)
	}
}

func TestFactoredStaticAblation(t *testing.T) {
	// The padding ablation mechanism must run, respect physics, and never
	// beat the same link bounds.
	p := platform.ServerB()
	pl, _ := buildPlacement(t, p, 10000, 0.1, solver.CliquePartition{})
	ex, _ := New(p, pl)
	b := genBatch(t, 10000, 40000, p.N, 9)
	static, err := ex.Run(FactoredStatic, b, nil)
	if err != nil {
		t.Fatal(err)
	}
	if static.Time <= 0 || math.IsNaN(static.Time) {
		t.Fatalf("static time %g", static.Time)
	}
	full, err := ex.Run(Factored, b, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Both respect the same per-batch byte volumes.
	for g := range full.SrcBytes {
		for j := range full.SrcBytes[g] {
			if full.SrcBytes[g][j] != static.SrcBytes[g][j] {
				t.Fatal("mechanisms disagree on volumes")
			}
		}
	}
}

func BenchmarkFactoredExtraction(b *testing.B) {
	p := platform.ServerC()
	r := rng.New(7)
	n := 100000
	perm := r.Perm(n)
	h := make(workload.Hotness, n)
	for rank := 0; rank < n; rank++ {
		h[perm[rank]] = math.Pow(float64(rank+1), -1.1)
	}
	caps := make([]int64, p.N)
	for g := range caps {
		caps[g] = int64(float64(n) * 0.08)
	}
	in := &solver.Input{P: p, Hotness: h, EntryBytes: 512, Capacity: caps}
	pl, err := (solver.UGache{}).Solve(in)
	if err != nil {
		b.Fatal(err)
	}
	ex, _ := New(p, pl)
	z, _ := workload.NewZipf(int64(n), 1.1)
	batch := &Batch{Keys: make([][]int64, p.N)}
	scratch := map[int64]struct{}{}
	for g := 0; g < p.N; g++ {
		keys := make([]int64, 400000)
		for i := range keys {
			keys[i] = z.Sample(r)
		}
		batch.Keys[g] = workload.Unique(keys, scratch)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ex.Run(Factored, batch, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func TestModelPredictsSimulation(t *testing.T) {
	// The §6.2 planning model and the fluid simulation must agree on the
	// factored extraction time within a small factor across regimes —
	// otherwise the solver optimizes the wrong objective. The model prices
	// expected per-iteration hotness mass while the simulation sees one
	// concrete batch, so agreement is approximate.
	const n, draws = 30000, 120000
	// Presence-based hotness from profiled batches, exactly as the apps
	// measure it — so the model's mass matches a batch's unique-key mix.
	var profile [][]int64
	for i := 0; i < 24; i++ {
		pb := genBatch(t, n, draws, 1, uint64(100+i))
		profile = append(profile, pb.Keys[0])
	}
	hot, err := workload.ProfileBatches(n, profile)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		p     *platform.Platform
		ratio float64
	}{
		{platform.ServerA(), 0.05},
		{platform.ServerA(), 0.2},
		{platform.ServerC(), 0.05},
		{platform.ServerC(), 0.2},
		{platform.ServerB(), 0.1},
	} {
		caps := make([]int64, tc.p.N)
		for g := range caps {
			caps[g] = int64(float64(n) * tc.ratio)
		}
		in := &solver.Input{P: tc.p, Hotness: hot, EntryBytes: 512, Capacity: caps}
		pl, err := (solver.UGache{}).Solve(in)
		if err != nil {
			t.Fatal(err)
		}
		ex, err := New(tc.p, pl)
		if err != nil {
			t.Fatal(err)
		}
		b := genBatch(t, n, draws, tc.p.N, 11)
		res, err := ex.Run(Factored, b, nil)
		if err != nil {
			t.Fatal(err)
		}
		// Scale the model estimate to this batch's actual unique-key count.
		est := solver.EstimateTimes(in, pl)
		maxEst := 0.0
		for _, v := range est {
			if v > maxEst {
				maxEst = v
			}
		}
		massKeys := hot.Total()
		batchKeys := float64(len(b.Keys[0]))
		scaled := maxEst * batchKeys / massKeys
		ratio := res.Time / scaled
		if ratio < 0.3 || ratio > 3.0 {
			t.Errorf("%s ratio %.2f: sim %.3gus vs scaled model %.3gus (x%.2f)",
				tc.p.Name, tc.ratio, res.Time*1e6, scaled*1e6, ratio)
		}
	}
}
