package platform

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"ugache/internal/sim"
)

func TestStockServers(t *testing.T) {
	for _, tc := range []struct {
		p    *Platform
		n    int
		kind Kind
	}{
		{ServerA(), 4, HardWired},
		{ServerB(), 8, HardWired},
		{ServerC(), 8, SwitchBased},
	} {
		if tc.p.N != tc.n || tc.p.Kind != tc.kind {
			t.Fatalf("%s: N=%d kind=%v", tc.p.Name, tc.p.N, tc.p.Kind)
		}
		if tc.p.NumSources() != tc.n+1 {
			t.Fatalf("%s: NumSources=%d", tc.p.Name, tc.p.NumSources())
		}
	}
	// The -server flag's names, either case.
	for name, want := range map[string]string{"A": "ServerA-4xV100", "b": "ServerB-8xV100", "C": "ServerC-8xA100"} {
		if p, err := ByName(name); err != nil || p.Name != want {
			t.Fatalf("ByName(%q) = %v, %v; want %s", name, p, err, want)
		}
	}
	if _, err := ByName("D"); err == nil {
		t.Fatal("ByName accepted server D")
	}
}

func TestServerAFullyConnected(t *testing.T) {
	p := ServerA()
	for i := 0; i < p.N; i++ {
		for j := 0; j < p.N; j++ {
			if !p.Connected(i, j) {
				t.Fatalf("ServerA: %d-%d not connected", i, j)
			}
			if i == j {
				continue
			}
			bw, ok := p.LinkBW(i, SourceID(j))
			if !ok || bw != 50e9 {
				t.Fatalf("ServerA pair %d<-%d bw %g ok=%v", i, j, bw, ok)
			}
		}
	}
}

func TestServerBDGX1Topology(t *testing.T) {
	p := ServerB()
	// Each GPU must have exactly six NVLink "lanes" (double counts as two)
	// and 150e9 total outbound bandwidth.
	for g := 0; g < 8; g++ {
		total := 0.0
		connected := 0
		for j := 0; j < 8; j++ {
			if g == j {
				continue
			}
			if p.Connected(g, j) {
				connected++
				total += p.PairBW[g][j]
			}
		}
		if total != 150e9 {
			t.Fatalf("gpu%d outbound %g, want 150e9", g, total)
		}
		if connected != 4 {
			t.Fatalf("gpu%d connected to %d peers, want 4", g, connected)
		}
	}
	// Cross-quad non-neighbors are unconnected; cliques are fully connected.
	if p.Connected(0, 5) || p.Connected(1, 6) || p.Connected(2, 7) {
		t.Fatal("unexpected cross-quad connection")
	}
	for _, q := range [][]int{{0, 1, 2, 3}, {4, 5, 6, 7}} {
		for _, a := range q {
			for _, b := range q {
				if !p.Connected(a, b) {
					t.Fatalf("clique pair %d-%d unconnected", a, b)
				}
			}
		}
	}
	// Symmetry.
	for i := 0; i < 8; i++ {
		for j := 0; j < 8; j++ {
			if p.PairBW[i][j] != p.PairBW[j][i] {
				t.Fatalf("asymmetric pair bw %d,%d", i, j)
			}
		}
	}
	// Unconnected pairs have no path and a 0 time per byte.
	if _, ok := p.Path(0, 5); ok {
		t.Fatal("path for unconnected pair")
	}
	if tb := p.TimePerByteTable()[0][5]; tb != 0 {
		t.Fatalf("time per byte %g for unconnected pair", tb)
	}
}

func TestServerCSwitch(t *testing.T) {
	p := ServerC()
	for i := 0; i < 8; i++ {
		for j := 0; j < 8; j++ {
			if !p.Connected(i, j) {
				t.Fatalf("switch pair %d-%d unconnected", i, j)
			}
		}
	}
	bw, ok := p.LinkBW(0, 1)
	if !ok || bw != 270e9 {
		t.Fatalf("switch remote bw %g", bw)
	}
	if p.out[3] < 0 || p.in[3] < 0 {
		t.Fatal("missing switch ports")
	}
	if a := ServerA(); a.out != nil || a.in != nil {
		t.Fatal("hard-wired platform should not have switch ports")
	}
}

func TestPathsAndRCore(t *testing.T) {
	p := ServerA()
	host := p.Host()
	if path, ok := p.Path(0, 0); !ok || len(path) != 1 {
		t.Fatalf("local path %v ok=%v", path, ok)
	}
	if path, ok := p.Path(0, host); !ok || len(path) != 2 {
		t.Fatalf("host path %v ok=%v", path, ok)
	}
	if path, ok := p.Path(2, 3); !ok || len(path) != 2 {
		t.Fatalf("remote path %v ok=%v", path, ok)
	}
	if p.RCore(0, 0) != p.GPU.RCoreLocal {
		t.Fatal("RCore local")
	}
	if p.RCore(0, host) != p.GPU.RCoreHost {
		t.Fatal("RCore host")
	}
	if p.RCore(0, 1) != p.GPU.RCoreRemote {
		t.Fatal("RCore remote")
	}
}

func TestHostBandwidthBoundedByPCIe(t *testing.T) {
	p := ServerC()
	bw, ok := p.LinkBW(0, p.Host())
	if !ok || bw != p.PCIeBW {
		t.Fatalf("host bw %g, want PCIe %g", bw, p.PCIeBW)
	}
	if tb := p.TimePerByteTable()[0][p.Host()]; math.Abs(tb-1/p.PCIeBW) > 1e-30 {
		t.Fatalf("time per byte %g", tb)
	}
}

func TestTolerances(t *testing.T) {
	// The paper's observations: host tolerates <10% of cores; on a
	// hard-wired 4-GPU platform each remote link tolerates about 1/3 of the
	// non-host cores; local tolerates all cores.
	a := ServerA()
	hostTol, _ := a.Tolerance(0, a.Host())
	if frac := hostTol / float64(a.GPU.SMs); frac >= 0.12 {
		t.Fatalf("ServerA host tolerance fraction %g, want < 0.12", frac)
	}
	remTol, _ := a.Tolerance(0, 1)
	if frac := remTol / float64(a.GPU.SMs); frac < 0.25 || frac > 0.42 {
		t.Fatalf("ServerA remote tolerance fraction %g, want ~1/3", frac)
	}
	locTol, _ := a.Tolerance(0, 0)
	if locTol < float64(a.GPU.SMs)*0.9 {
		t.Fatalf("ServerA local tolerance %g, want ≈ all %d cores", locTol, a.GPU.SMs)
	}

	c := ServerC()
	locTolC, _ := c.Tolerance(0, 0)
	if locTolC < float64(c.GPU.SMs)*0.9 {
		t.Fatalf("ServerC local tolerance %g", locTolC)
	}
	remTolC, _ := c.Tolerance(0, 1)
	if remTolC < float64(c.GPU.SMs)*0.8 {
		t.Fatalf("ServerC single-reader remote tolerance %g, want ≈ all cores", remTolC)
	}
	hostTolC, _ := c.Tolerance(0, c.Host())
	if frac := hostTolC / float64(c.GPU.SMs); frac >= 0.12 {
		t.Fatalf("ServerC host tolerance fraction %g", frac)
	}
}

func TestProfileBandwidthShape(t *testing.T) {
	// Fig. 6: rising then plateauing curves; remote plateau below local;
	// host plateau far below both.
	p := ServerA()
	counts := []int{1, 5, 10, 20, 40, 80}
	local, err := p.ProfileBandwidth(0, 0, counts)
	if err != nil {
		t.Fatal(err)
	}
	remote, err := p.ProfileBandwidth(0, 1, counts)
	if err != nil {
		t.Fatal(err)
	}
	host, err := p.ProfileBandwidth(0, p.Host(), counts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(counts); i++ {
		if local[i].Bandwidth+1 < local[i-1].Bandwidth {
			t.Fatal("local curve must be non-decreasing")
		}
	}
	lastL := local[len(counts)-1].Bandwidth
	lastR := remote[len(counts)-1].Bandwidth
	lastH := host[len(counts)-1].Bandwidth
	if !(lastH < lastR && lastR < lastL) {
		t.Fatalf("plateau ordering violated: host %g remote %g local %g", lastH, lastR, lastL)
	}
	if lastR != 50e9 {
		t.Fatalf("remote plateau %g, want link cap 50e9", lastR)
	}
	if lastH != 12e9 {
		t.Fatalf("host plateau %g, want PCIe 12e9", lastH)
	}
}

func TestProfileMultiReaderCollision(t *testing.T) {
	// Fig. 6(b) right: on a switch, concurrent readers of the same source
	// split its outbound port.
	p := ServerC()
	one, err := p.ProfileMultiReader(4, []int{2}, p.GPU.SMs)
	if err != nil {
		t.Fatal(err)
	}
	many, err := p.ProfileMultiReader(4, []int{0, 1, 2, 3}, p.GPU.SMs)
	if err != nil {
		t.Fatal(err)
	}
	if many[2] >= one[2] {
		t.Fatalf("no collision: single %g, contended %g", one[2], many[2])
	}
	if many[2] > one[2]/2 {
		t.Fatalf("contended share too high: %g vs %g", many[2], one[2])
	}
}

func TestProfileValidation(t *testing.T) {
	p := ServerB()
	if _, err := p.ProfileBandwidth(0, 5, []int{4}); err == nil {
		t.Fatal("expected error for unconnected pair")
	}
	if _, err := p.ProfileBandwidth(0, 1, []int{0}); err == nil {
		t.Fatal("expected error for zero cores")
	}
	if _, err := p.ProfileMultiReader(0, []int{0}, 4); err == nil {
		t.Fatal("expected error for reader == source")
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{N: 0, GPU: V100x16, PCIeBW: 1, DRAMBW: 1}); err == nil {
		t.Fatal("N=0 accepted")
	}
	if _, err := New(Config{N: 2, GPU: V100x16, PCIeBW: 0, DRAMBW: 1}); err == nil {
		t.Fatal("zero PCIe accepted")
	}
	if _, err := New(Config{N: 2, GPU: GPUModel{}, PCIeBW: 1, DRAMBW: 1}); err == nil {
		t.Fatal("empty GPU model accepted")
	}
	if _, err := New(Config{N: 2, Kind: HardWired, GPU: V100x16, PCIeBW: 1, DRAMBW: 1}); err == nil {
		t.Fatal("missing PairBW accepted")
	}
	if _, err := New(Config{N: 2, Kind: SwitchBased, GPU: A100x80, PCIeBW: 1, DRAMBW: 1}); err == nil {
		t.Fatal("missing SwitchPortBW accepted")
	}
}

// TestNewRejectsHostileRates: every bandwidth and per-core rate must be finite
// and positive, a pair bandwidth finite and non-negative (0 is "no link"), and
// the network latency finite and non-negative. NaN passes a plain x <= 0
// check, so the fields are tried with NaN and +Inf as well as negatives.
func TestNewRejectsHostileRates(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		name string
		edit func(*Config)
	}{
		{"PCIeBW NaN", func(c *Config) { c.PCIeBW = nan }},
		{"PCIeBW +Inf", func(c *Config) { c.PCIeBW = inf }},
		{"DRAMBW NaN", func(c *Config) { c.DRAMBW = nan }},
		{"DRAMBW +Inf", func(c *Config) { c.DRAMBW = inf }},
		{"LocalBW NaN", func(c *Config) { c.GPU.LocalBW = nan }},
		{"LocalBW +Inf", func(c *Config) { c.GPU.LocalBW = inf }},
		{"RCoreLocal NaN", func(c *Config) { c.GPU.RCoreLocal = nan }},
		{"RCoreRemote +Inf", func(c *Config) { c.GPU.RCoreRemote = inf }},
		{"RCoreHost NaN", func(c *Config) { c.GPU.RCoreHost = nan }},
		{"PairBW negative", func(c *Config) { c.PairBW[0][1] = -25e9 }},
		{"PairBW NaN", func(c *Config) { c.PairBW[2][1] = nan }},
		{"PairBW +Inf", func(c *Config) { c.PairBW[1][0] = inf }},
		{"PairBW diagonal NaN", func(c *Config) { c.PairBW[3][3] = nan }},
		{"net LinkBW NaN", func(c *Config) { c.Network = &NetworkConfig{Machines: 2, LinkBW: nan} }},
		{"net LinkBW +Inf", func(c *Config) { c.Network = &NetworkConfig{Machines: 2, LinkBW: inf} }},
		{"net LinkBW negative", func(c *Config) { c.Network = &NetworkConfig{Machines: 2, LinkBW: -1} }},
		{"net latency NaN", func(c *Config) { c.Network = &NetworkConfig{Machines: 2, LinkBW: 25e9, LatencySec: nan} }},
		{"net latency +Inf", func(c *Config) { c.Network = &NetworkConfig{Machines: 2, LinkBW: 25e9, LatencySec: inf} }},
		{"net latency negative", func(c *Config) { c.Network = &NetworkConfig{Machines: 2, LinkBW: 25e9, LatencySec: -1e-6} }},
		{"SwitchPortBW NaN", func(c *Config) { *c = ServerCConfig(); c.SwitchPortBW = nan }},
		{"SwitchPortBW +Inf", func(c *Config) { *c = ServerCConfig(); c.SwitchPortBW = inf }},
		{"switch GPU LocalBW NaN", func(c *Config) { *c = ServerCConfig(); c.GPU.LocalBW = nan }},
	} {
		cfg := ServerAConfig()
		tc.edit(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
	// The edges stay legal: an unconnected pair and a zero latency.
	cfg := ServerAConfig()
	cfg.PairBW[0][1], cfg.Network = 0, &NetworkConfig{Machines: 2, LinkBW: 25e9}
	p, err := New(cfg)
	if err != nil {
		t.Fatalf("unconnected pair with zero latency rejected: %v", err)
	}
	if p.Connected(0, 1) || !p.Connected(1, 0) {
		t.Fatal("PairBW 0 must mean no link, in that direction only")
	}
}

func TestLinkIDAccessors(t *testing.T) {
	p := ServerB()
	if len(p.NVLinkIDs()) != 2*(len(dgx1Double)+len(dgx1Single)) {
		t.Fatalf("NVLinkIDs count %d", len(p.NVLinkIDs()))
	}
	if len(p.PCIeIDs()) != 8 {
		t.Fatal("PCIeIDs count")
	}
	if p.pair[0][3] < 0 || p.pair[0][5] != -1 {
		t.Fatal("pair link lookup")
	}
	c := ServerC()
	if len(c.NVLinkIDs()) != 16 {
		t.Fatalf("switch NVLinkIDs count %d", len(c.NVLinkIDs()))
	}
	if c.pair != nil {
		t.Fatal("switch platform should not have pair links")
	}
}

// TestLinkIDListsBuiltOnce: PCIeIDs and NVLinkIDs list, by link name, each
// GPU's PCIe link in GPU order and each NVLink in row-major pair order (a
// switch's ports out then in, GPU by GPU), and return them without
// allocating: the application ledger reads both every iteration. The route
// accessors read the tables New derived and allocate nothing either.
func TestLinkIDListsBuiltOnce(t *testing.T) {
	cluster, err := ClusterOf(ServerAConfig(), DefaultNetwork(2))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []*Platform{ServerA(), ServerB(), ServerC(), cluster} {
		id := map[string]sim.LinkID{}
		for l, link := range p.Topo.Links {
			id[link.Name] = sim.LinkID(l)
		}
		var pcie, nvlink []sim.LinkID
		for i := 0; i < p.N; i++ {
			pcie = append(pcie, id[fmt.Sprintf("gpu%d-pcie", i)])
			if p.Kind == SwitchBased {
				nvlink = append(nvlink, id[fmt.Sprintf("gpu%d-nvswitch-out", i)], id[fmt.Sprintf("gpu%d-nvswitch-in", i)])
				continue
			}
			for j := 0; j < p.N; j++ {
				if l, ok := id[fmt.Sprintf("nvlink-%d<-%d", i, j)]; ok {
					nvlink = append(nvlink, l)
				}
			}
		}
		if !slices.Equal(p.PCIeIDs(), pcie) || !slices.Equal(p.NVLinkIDs(), nvlink) {
			t.Errorf("%s: PCIeIDs %v, NVLinkIDs %v; want %v and %v", p.Name, p.PCIeIDs(), p.NVLinkIDs(), pcie, nvlink)
		}
		if n := testing.AllocsPerRun(10, func() { p.PCIeIDs(); p.NVLinkIDs() }); n != 0 {
			t.Errorf("%s: PCIeIDs and NVLinkIDs allocate %v times a call", p.Name, n)
		}
		ns := p.NumSources()
		for name, read := range map[string]func(g int, src SourceID){
			"Path":             func(g int, src SourceID) { p.Path(g, src) },
			"FEMDedication":    func(g int, _ SourceID) { p.FEMDedication(g) },
			"TimePerByteTable": func(int, SourceID) { p.TimePerByteTable() },
			"LinkBW":           func(g int, src SourceID) { p.LinkBW(g, src) },
			"Tolerance":        func(g int, src SourceID) { p.Tolerance(g, src) },
			"EffectiveBW":      func(g int, src SourceID) { p.EffectiveBW(g, src) },
		} {
			n := testing.AllocsPerRun(10, func() {
				for g := 0; g < p.N; g++ {
					for j := 0; j < ns; j++ {
						read(g, SourceID(j))
					}
				}
			})
			if n != 0 {
				t.Errorf("%s: %s allocates %v times over every (GPU, source)", p.Name, name, n)
			}
		}
	}
}

// TestPlatformOwnsItsConfig: a platform is immutable after New, so writing
// the config's pair matrix afterwards moves neither its PairBW nor the
// dedication derived from it.
func TestPlatformOwnsItsConfig(t *testing.T) {
	cfg := ServerBConfig()
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ded := slices.Clone(p.FEMDedication(0))
	cfg.PairBW[0][1], cfg.PairBW[0][3] = 0, 1
	if p.PairBW[0][1] != 25e9 || p.PairBW[0][3] != 50e9 || !slices.Equal(p.FEMDedication(0), ded) {
		t.Fatalf("writing the config moved the platform: PairBW[0] %v, dedication %v", p.PairBW[0], p.FEMDedication(0))
	}
}

// TestTierClasses: every source of a platform falls in exactly the tier its
// place names — the GPU itself local, host memory host, the cluster's remote
// machines network, any other GPU remote — and the tiers are named in
// index order, a tier out of range by its number.
func TestTierClasses(t *testing.T) {
	twin, err := ClusterOf(ServerAConfig(), DefaultNetwork(2))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []*Platform{ServerA(), ServerB(), ServerC(), twin} {
		for dst := 0; dst < p.N; dst++ {
			for j := 0; j < p.NumSources(); j++ {
				src, want := SourceID(j), TierRemote
				switch {
				case j == dst:
					want = TierLocal
				case src == p.Host():
					want = TierHost
				case p.HasNetwork() && src == p.Network():
					want = TierNetwork
				}
				if got := p.Tier(dst, src); got != want {
					t.Fatalf("%s: gpu %d reads source %d from tier %v, want %v", p.Name, dst, j, got, want)
				}
			}
		}
	}
	names := []string{}
	for tier := Tier(0); tier < NumTiers; tier++ {
		names = append(names, tier.String())
	}
	if got := fmt.Sprint(names); got != "[local remote host network]" {
		t.Fatalf("tier names %s", got)
	}
	for _, c := range []struct {
		tier Tier
		want string
	}{{NumTiers, "tier(4)"}, {7, "tier(7)"}, {-1, "tier(-1)"}} {
		if got := c.tier.String(); got != c.want {
			t.Errorf("Tier(%d).String() = %q, want %q", int(c.tier), got, c.want)
		}
	}
}

// TestUnorganizedTopology: the unorganized topology has Topo's links in
// Topo's order under Topo's names, each at Topo's capacity times its link
// class's efficiency — PCIe, NVLink/NVSwitch and the NIC degraded, HBM and
// host DRAM exact — on Servers A, B and C and on a two-machine cluster of
// Server A (the NIC).
func TestUnorganizedTopology(t *testing.T) {
	cluster, err := ClusterOf(ServerAConfig(), DefaultNetwork(2))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		p     *Platform
		links int
	}{{ServerA(), 21}, {ServerB(), 49}, {ServerC(), 33}, {cluster, 22}} {
		p := tc.p
		factor := make([]float64, len(p.Topo.Links)) // 1 on HBM and host DRAM
		for l := range factor {
			factor[l] = 1
		}
		for _, l := range p.PCIeIDs() {
			factor[l] = peerPCIeEfficiency
		}
		for _, l := range p.NVLinkIDs() {
			factor[l] = peerLinkEfficiency
		}
		if p.HasNetwork() {
			factor[p.nic] = peerNetworkEfficiency
		}
		unorg := p.Unorganized().Links
		if len(p.Topo.Links) != tc.links || len(unorg) != tc.links {
			t.Fatalf("%s: %d links, %d unorganized; want %d", p.Name, len(p.Topo.Links), len(unorg), tc.links)
		}
		for l, link := range p.Topo.Links {
			want := sim.Link{Name: link.Name, Capacity: link.Capacity * factor[l]}
			if unorg[l] != want {
				t.Errorf("%s: unorganized link %d is %+v, want %+v", p.Name, l, unorg[l], want)
			}
		}
	}
}

func TestKindNames(t *testing.T) {
	for k, want := range map[Kind]string{
		HardWired: "hard-wired", SwitchBased: "switch-based", 7: "kind(7)", -1: "kind(-1)",
	} {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), got, want)
		}
	}
}
