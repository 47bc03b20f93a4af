package extract

import (
	"math"
	"testing"

	"ugache/internal/platform"
	"ugache/internal/rng"
	"ugache/internal/solver"
	"ugache/internal/workload"
)

// clusterPlatform is ServerC joined into a 4-machine cluster over the
// default network fabric.
func clusterPlatform(t *testing.T, machines int) *platform.Platform {
	t.Helper()
	cfg := platform.ServerCConfig()
	net := platform.DefaultNetwork(machines)
	cfg.Network = &net
	p, err := platform.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestClusterExtraction: every mechanism runs on a cluster placement, the
// network source class carries volume, and bytes are conserved.
func TestClusterExtraction(t *testing.T) {
	p := clusterPlatform(t, 4)
	pl, _ := buildPlacement(t, p, 20000, 0.05, solver.UGache{})
	ex, err := New(p, pl)
	if err != nil {
		t.Fatal(err)
	}
	b := genBatch(t, 20000, 50000, p.N, 3)
	net, host := p.Network(), p.Host()
	for _, m := range []Mechanism{Factored, PeerRandom, MessageBased} {
		res, err := ex.Run(m, b, nil)
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if res.Time <= 0 || math.IsInf(res.Time, 0) || math.IsNaN(res.Time) {
			t.Fatalf("%s: time %g", m, res.Time)
		}
		netBytes, hostBytes := 0.0, 0.0
		for g := range res.SrcBytes {
			sum := 0.0
			for _, v := range res.SrcBytes[g] {
				sum += v
			}
			want := float64(len(b.Keys[g])) * 512
			if math.Abs(sum-want) > 1 {
				t.Fatalf("%s: gpu %d bytes %g, want %g", m, g, sum, want)
			}
			netBytes += res.SrcBytes[g][net]
			hostBytes += res.SrcBytes[g][host]
		}
		if netBytes <= 0 {
			t.Fatalf("%s: no network-class bytes despite a 5%% cache", m)
		}
		if hostBytes != 0 {
			t.Fatalf("%s: %g host bytes; cluster placements prune the host tier", m, hostBytes)
		}
	}
}

// TestClusterOwnedSplit: the Owned predicate reroutes this machine's shard
// of the network-class keys onto the host path, byte for byte.
func TestClusterOwnedSplit(t *testing.T) {
	p := clusterPlatform(t, 4)
	pl, _ := buildPlacement(t, p, 20000, 0.05, solver.UGache{})
	ex, err := New(p, pl)
	if err != nil {
		t.Fatal(err)
	}
	b := genBatch(t, 20000, 50000, p.N, 3)
	base, err := ex.Run(Factored, b, nil)
	if err != nil {
		t.Fatal(err)
	}
	net, host := p.Network(), p.Host()
	baseNet := make([]float64, p.N)
	for g := range base.SrcBytes {
		baseNet[g] = base.SrcBytes[g][net]
	}
	// Own every fourth key — a deterministic stand-in for the hash ring's
	// 1/M shard.
	ex.Owned = func(k int64) bool { return k%4 == 0 }
	split, err := ex.Run(Factored, b, nil)
	if err != nil {
		t.Fatal(err)
	}
	for g := range split.SrcBytes {
		gotNet, gotHost := split.SrcBytes[g][net], split.SrcBytes[g][host]
		if gotHost <= 0 {
			t.Fatalf("gpu %d: owned keys did not reach the host path", g)
		}
		if math.Abs(gotNet+gotHost-baseNet[g]) > 1 {
			t.Fatalf("gpu %d: split %g+%g != unsplit network volume %g", g, gotNet, gotHost, baseNet[g])
		}
		if gotNet >= baseNet[g] {
			t.Fatalf("gpu %d: network volume %g not reduced from %g", g, gotNet, baseNet[g])
		}
		// Non-network tiers are untouched by the split.
		for j := range split.SrcBytes[g] {
			if platform.SourceID(j) == net || platform.SourceID(j) == host {
				continue
			}
			if split.SrcBytes[g][j] != base.SrcBytes[g][j] {
				t.Fatalf("gpu %d src %d: %g != %g", g, j, split.SrcBytes[g][j], base.SrcBytes[g][j])
			}
		}
	}
}

// TestClusterScaleOutFacts holds the two falsifiable facts of the retired
// virtual-time cluster sweep (BENCH_cluster.json), on its platform — two
// V100s per machine, 12 GB/s PCIe, 25 GB/s wire — and its stream: batches of
// 8 requests x 8 Zipf(1.2) keys over a 10 % cache, key k owned by machine
// k mod M (a deterministic stand-in for the hash ring's 1/M shard; this
// package sits below internal/cluster). (1) Only the non-owned cold tail
// crosses the wire: the network key share is 0 on one machine and a few
// percent on 2 and 4. (2) The blended network column prices that tail no
// dearer than the host path it replaces, so a batch's modelled time does not
// move with the machine count. The sweep's knee scaling followed from (2)
// plus its own worker count and is not re-asserted.
//
// At this size (the sweep's: 100 000 entries, 256 batches) the shares read
// 0 / 0.041 / 0.063 and the mean batch times 20.39 / 20.50 / 20.46 ns — 0.5 %
// and 0.4 % off the single machine, inside the 1 % bound; the sweep, behind
// the real ring, read 0 / 0.047 / 0.068 and 20.4 / 20.5 / 20.5 ns. The bound
// is for this size: at 20 000 entries the batches are 1.2 % apart and at
// 8 192 entries 2.3 %.
func TestClusterScaleOutFacts(t *testing.T) {
	const n, batches, alpha = 100000, 256, 1.2
	h := make(workload.Hotness, n)
	for k := range h {
		h[k] = math.Pow(float64(k+1), -alpha) // key == Zipf rank, as the generator draws them
	}
	z, err := workload.NewZipf(n, alpha)
	if err != nil {
		t.Fatal(err)
	}
	var single float64
	for _, machines := range []int{1, 2, 4} {
		cfg := platform.Config{
			Name: "2xV100", Kind: platform.HardWired, GPU: platform.V100x16, N: 2,
			PCIeBW: 12e9, DRAMBW: 140e9, PairBW: [][]float64{{0, 50e9}, {50e9, 0}},
		}
		if machines > 1 {
			net := platform.DefaultNetwork(machines)
			cfg.Network = &net
		}
		p, err := platform.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		in := &solver.Input{P: p, Hotness: h, EntryBytes: 64, Capacity: []int64{n / 10, n / 10}}
		pl, err := solver.UGache{}.Solve(in)
		if err != nil {
			t.Fatal(err)
		}
		ex, err := New(p, pl)
		if err != nil {
			t.Fatal(err)
		}
		ex.Owned = func(k int64) bool { return k%int64(machines) == 0 }
		r := rng.New(42)
		sc := NewScratch()
		scratch := make(map[int64]struct{})
		var netBytes, allBytes, seconds float64
		for b := 0; b < batches; b++ {
			keys := make([]int64, 64)
			for i := range keys {
				keys[i] = z.Sample(r)
			}
			batch := &Batch{Keys: make([][]int64, p.N)}
			batch.Keys[b%p.N] = workload.Unique(keys, scratch)
			res, err := ex.Run(Factored, batch, sc)
			if err != nil {
				t.Fatal(err)
			}
			seconds += res.Time
			for _, row := range res.SrcBytes {
				for j, v := range row {
					allBytes += v
					if p.HasNetwork() && platform.SourceID(j) == p.Network() {
						netBytes += v
					}
				}
			}
		}
		share, mean := netBytes/allBytes, seconds/batches
		t.Logf("%d machines: network key share %.4f, mean batch %.4f ns", machines, share, mean*1e9)
		switch {
		case machines == 1:
			single = mean
			if share != 0 {
				t.Fatalf("single machine: network key share %g, want 0", share)
			}
		case share <= 0 || share >= 0.10:
			t.Fatalf("%d machines: network key share %.4f, want in (0, 0.10)", machines, share)
		case math.Abs(mean-single) > 0.01*single:
			t.Fatalf("%d machines: mean batch %.4g s, single machine %.4g s — more than 1 %% apart", machines, mean, single)
		}
	}
}
