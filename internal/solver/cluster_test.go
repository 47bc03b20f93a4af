package solver

import (
	"math"
	"testing"

	"ugache/internal/platform"
	"ugache/internal/workload"
)

// microClusterInput is microInput's 2-GPU instance on one machine of an
// M-machine cluster: the remote-machine source class is enabled and the
// host column is pruned.
func microClusterInput(t testing.TB, n int, capacity int64, machines int) *Input {
	t.Helper()
	pair := [][]float64{{0, 50e9}, {50e9, 0}}
	net := platform.DefaultNetwork(machines)
	p, err := platform.New(platform.Config{
		Name: "2xV100", Kind: platform.HardWired, GPU: platform.V100x16, N: 2,
		PCIeBW: 12e9, DRAMBW: 140e9, PairBW: pair, Network: &net,
	})
	if err != nil {
		t.Fatal(err)
	}
	h := make(workload.Hotness, n)
	for e := 0; e < n; e++ {
		h[e] = math.Pow(float64(e+1), -1.2) * 1000
	}
	return &Input{P: p, Hotness: h, EntryBytes: 512, Capacity: []int64{capacity, capacity}}
}

// TestClusterCostModelBlend pins the blended network column: with the host
// column pruned, the network class prices the full host-path cost (every
// network-class byte lands in local DRAM and crosses local PCIe whichever
// machine served it) against the NIC share carrying the wire fraction.
func TestClusterCostModelBlend(t *testing.T) {
	in := microClusterInput(t, 24, 8, 4)
	p := in.P
	m := newCostModel(in)
	single := *in
	base := platform.ServerAConfig()
	base.N, base.PairBW = 2, [][]float64{{0, 50e9}, {50e9, 0}}
	sp, err := platform.New(base)
	if err != nil {
		t.Fatal(err)
	}
	single.P = sp
	ms := newCostModel(&single)
	host, net := int(p.Host()), int(p.Network())
	wire := 1 - 1/float64(p.Machines())
	for i := 0; i < p.N; i++ {
		if !math.IsInf(m.invEff[i][host], 1) || !math.IsInf(m.packCost[i][host], 1) {
			t.Fatalf("gpu %d: host column not pruned in cluster mode", i)
		}
		want := math.Max(ms.invEff[i][host], wire*float64(p.N)/p.Net.LinkBW)
		if got := m.invEff[i][net]; math.Abs(got-want)/want > 1e-12 {
			t.Fatalf("gpu %d: blended invEff %g, want %g", i, got, want)
		}
		// The network tier must never be cheaper than the single-machine
		// host tier it replaces, and always dearer than local HBM.
		if m.invEff[i][net] < ms.invEff[i][host] {
			t.Fatalf("gpu %d: network tier cheaper than the host tier", i)
		}
		if m.packCost[i][net] != ms.packCost[i][host] {
			t.Fatalf("gpu %d: network packing %g != host packing %g", i, m.packCost[i][net], ms.packCost[i][host])
		}
		if m.invEff[i][net] <= m.invEff[i][i] {
			t.Fatalf("gpu %d: network tier not slower than local HBM", i)
		}
	}
}

// TestClusterSolveUsesNetworkFallback: on a cluster instance every policy
// output validates, never references the pruned host tier, and sends the
// uncached tail to the network class (visible in Stats).
func TestClusterSolveUsesNetworkFallback(t *testing.T) {
	in := microClusterInput(t, 4096, 256, 4)
	host := in.P.Host()
	for _, pol := range []Policy{UGache{}, OptimalLP{}, Replication{}, Partition{}, CliquePartition{}, RepPart{Candidates: 9}} {
		pl := mustSolve(t, pol, in)
		if err := pl.Validate(in); err != nil {
			t.Fatalf("%s: %v", pol.Name(), err)
		}
		for bi := range pl.Blocks {
			for _, src := range pl.Blocks[bi].Access {
				if src == host {
					t.Fatalf("%s: block %d reads the pruned host tier", pol.Name(), bi)
				}
			}
		}
		stats := pl.Stats(in.Hotness)
		for g, s := range stats {
			if s.Host != 0 {
				t.Fatalf("%s: gpu %d reports host mass %g on a cluster", pol.Name(), g, s.Host)
			}
			if s.Network <= 0 {
				t.Fatalf("%s: gpu %d reports no network mass with a %d-entry cache over %d entries",
					pol.Name(), g, in.Capacity[g], len(in.Hotness))
			}
		}
		for g, est := range pl.EstTimes {
			if est <= 0 || math.IsInf(est, 0) || math.IsNaN(est) {
				t.Fatalf("%s: gpu %d estimated time %g", pol.Name(), g, est)
			}
		}
	}
}

// TestClusterReplicatesHarderThanSingleMachine: because the cluster's
// fallback tier is strictly slower than a single machine's host tier, the
// solver's modelled makespan on the clustered twin is at least the
// single-machine one — the replicate-vs-fetch trade-off only gets tighter.
func TestClusterReplicatesHarderThanSingleMachine(t *testing.T) {
	single := microInput(t, 4096, 256)
	cluster := microClusterInput(t, 4096, 256, 4)
	pls := mustSolve(t, UGache{}, single)
	plc := mustSolve(t, UGache{}, cluster)
	if ms, mc := maxF(pls.EstTimes), maxF(plc.EstTimes); mc < ms*(1-1e-9) {
		t.Fatalf("cluster makespan %g beats single-machine %g despite a slower fallback tier", mc, ms)
	}
}
