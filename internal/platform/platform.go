// Package platform models the multi-GPU servers the paper evaluates on. A
// Platform owns a sim.Topology of links — per-GPU HBM ports, directed
// NVLink pair links (hard-wired servers), per-GPU NVSwitch outbound/inbound
// ports (switch-based servers), per-GPU PCIe lanes and the shared host DRAM
// — plus the per-core sustained gather rates that determine each link's
// tolerance of concurrent cores (paper Fig. 6).
//
// Three stock servers mirror the paper's testbeds (§8.1):
//
//	Server A: 4×V100 (16 GB), hard-wired, uniform fully connected;
//	Server B: 8×V100 (32 GB), DGX-1 hybrid cube-mesh with unconnected pairs;
//	Server C: 8×A100 (80 GB), NVSwitch.
//
// Bandwidth constants are effective gather bandwidths calibrated to the
// paper's microbenchmark (Fig. 6), not peak datasheet numbers.
package platform

import (
	"fmt"
	"math"
	"slices"

	"ugache/internal/sim"
)

// GPUModel captures the per-device constants of one GPU generation.
type GPUModel struct {
	Name     string
	SMs      int     // number of streaming multiprocessors
	MemBytes int64   // HBM capacity
	LocalBW  float64 // effective local gather bandwidth, bytes/s
	// Per-core sustained gather rates by source kind; these set each link's
	// tolerance (capacity / rate) of concurrent cores.
	RCoreLocal  float64
	RCoreRemote float64
	RCoreHost   float64
}

// Stock GPU models.
var (
	V100x16 = GPUModel{
		Name: "V100-16GB", SMs: 80, MemBytes: 16 << 30,
		LocalBW: 240e9, RCoreLocal: 3e9, RCoreRemote: 1.9e9, RCoreHost: 1.5e9,
	}
	V100x32 = GPUModel{
		Name: "V100-32GB", SMs: 80, MemBytes: 32 << 30,
		LocalBW: 240e9, RCoreLocal: 3e9, RCoreRemote: 1.9e9, RCoreHost: 1.5e9,
	}
	A100x80 = GPUModel{
		Name: "A100-80GB", SMs: 108, MemBytes: 80 << 30,
		LocalBW: 650e9, RCoreLocal: 6e9, RCoreRemote: 2.6e9, RCoreHost: 2.5e9,
	}
)

// Kind distinguishes the two interconnect families of §3.2.
type Kind int

const (
	// HardWired platforms physically divide each GPU's outbound bandwidth
	// into per-pair links (possibly non-uniform, possibly unconnected).
	HardWired Kind = iota
	// SwitchBased platforms route all traffic through NVSwitch, with
	// per-GPU outbound and inbound port capacities.
	SwitchBased
)

func (k Kind) String() string {
	switch k {
	case HardWired:
		return "hard-wired"
	case SwitchBased:
		return "switch-based"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// SourceID identifies a source location: 0..N-1 are GPUs, Host(N) is host
// memory (the value equals the GPU count of the platform), and — on
// clustered platforms only — Network(N+1) is the remote-machine tier behind
// the inter-machine fabric.
type SourceID int

// NetworkConfig describes the inter-machine fabric joining M identical
// single-machine platforms into a cluster. Each machine owns one NIC whose
// effective gather bandwidth and base one-way latency are modelled like
// any other link; unorganized extraction sees it at a degraded capacity
// (see degraded.go).
type NetworkConfig struct {
	// Machines is the number of machines in the cluster (≥ 2).
	Machines int
	// LinkBW is the effective per-machine NIC bandwidth, bytes/s.
	LinkBW float64
	// LatencySec is the base one-way network latency; a cross-machine
	// dispatch is charged the round trip, 2 x LatencySec (amortized by
	// sub-batch coalescing).
	LatencySec float64
}

// DefaultNetwork is the stock inter-machine fabric: a 200 Gb/s-class RDMA
// NIC at 25 GB/s effective gather bandwidth and a 10 µs one-way latency.
// The per-GPU NIC share (LinkBW/N) deliberately sits below the per-GPU host
// DRAM share, so the network tier is the slowest rung of the hierarchy.
func DefaultNetwork(machines int) NetworkConfig {
	return NetworkConfig{Machines: machines, LinkBW: 25e9, LatencySec: 10e-6}
}

// Platform is one multi-GPU server. A platform is immutable after New: New
// derives every per-(GPU, source) route fact once — each route's link path,
// each GPU's §5.3 core dedication and the §6.2 T_{i←j} matrix — and the
// accessors hand out those tables, so no caller writes a field or a
// returned slice.
type Platform struct {
	Name   string
	Kind   Kind
	GPU    GPUModel
	N      int     // number of GPUs
	PCIeBW float64 // per-GPU PCIe bandwidth, bytes/s
	DRAMBW float64 // shared host DRAM bandwidth, bytes/s
	// PairBW[i][j] is the NVLink bandwidth for i reading from j; 0 means the
	// pair is unconnected (hard-wired platforms only).
	PairBW [][]float64
	// SwitchPortBW is the per-GPU outbound/inbound NVSwitch port capacity
	// (switch-based platforms only).
	SwitchPortBW float64
	// Net is the inter-machine fabric; meaningful only when hasNet is set
	// (clustered platforms).
	Net NetworkConfig

	Topo sim.Topology
	hbm  []sim.LinkID
	pcie []sim.LinkID
	out  []sim.LinkID // switch-based
	in   []sim.LinkID // switch-based
	pair [][]sim.LinkID
	dram sim.LinkID
	// nvlink lists every NVLink/NVSwitch link: each connected pair in
	// row-major order, or each GPU's switch ports out then in.
	nvlink []sim.LinkID

	hasNet bool
	nic    sim.LinkID // clustered platforms only

	// unorg is Topo at unorganized extraction's capacities (degraded.go).
	unorg sim.Topology

	// Derived by New from the links above, indexed [dst][src]: paths holds
	// each route (nil when unreachable), ded each GPU's FEMDedication row and
	// tpb the TimePerByteTable.
	paths [][][]sim.LinkID
	ded   [][]float64
	tpb   [][]float64
}

// Config describes a platform to build; use the ServerA/B/C constructors
// for the paper's testbeds.
type Config struct {
	Name         string
	Kind         Kind
	GPU          GPUModel
	N            int
	PCIeBW       float64
	DRAMBW       float64
	PairBW       [][]float64 // hard-wired; PairBW[i][j] = bw for i reading j
	SwitchPortBW float64     // switch-based
	// Network, when non-nil, makes this one machine of a Machines-wide
	// cluster joined by the described fabric (adds the Network source).
	Network *NetworkConfig
}

// New builds a platform and its link topology from a config.
func New(cfg Config) (*Platform, error) {
	if cfg.N < 1 {
		return nil, fmt.Errorf("platform: need at least one GPU, got %d", cfg.N)
	}
	if !rate(cfg.PCIeBW) || !rate(cfg.DRAMBW) {
		return nil, fmt.Errorf("platform: PCIe/DRAM bandwidth must be finite and positive")
	}
	if cfg.GPU.SMs <= 0 || !rate(cfg.GPU.LocalBW) ||
		!rate(cfg.GPU.RCoreLocal) || !rate(cfg.GPU.RCoreRemote) || !rate(cfg.GPU.RCoreHost) {
		return nil, fmt.Errorf("platform: incomplete GPU model %q", cfg.GPU.Name)
	}
	if cfg.Network != nil {
		if cfg.Network.Machines < 2 {
			return nil, fmt.Errorf("platform: cluster needs at least 2 machines, got %d", cfg.Network.Machines)
		}
		if !rate(cfg.Network.LinkBW) {
			return nil, fmt.Errorf("platform: cluster NIC bandwidth must be finite and positive, got %g", cfg.Network.LinkBW)
		}
		if lat := cfg.Network.LatencySec; lat != 0 && !rate(lat) {
			return nil, fmt.Errorf("platform: cluster latency must be finite and non-negative, got %g", lat)
		}
	}
	p := &Platform{
		Name: cfg.Name, Kind: cfg.Kind, GPU: cfg.GPU, N: cfg.N,
		PCIeBW: cfg.PCIeBW, DRAMBW: cfg.DRAMBW, SwitchPortBW: cfg.SwitchPortBW,
	}
	p.dram = p.Topo.AddLink("host-dram", cfg.DRAMBW)
	p.hbm = make([]sim.LinkID, cfg.N)
	p.pcie = make([]sim.LinkID, cfg.N)
	for g := 0; g < cfg.N; g++ {
		p.hbm[g] = p.Topo.AddLink(fmt.Sprintf("gpu%d-hbm", g), cfg.GPU.LocalBW)
		p.pcie[g] = p.Topo.AddLink(fmt.Sprintf("gpu%d-pcie", g), cfg.PCIeBW)
	}
	switch cfg.Kind {
	case HardWired:
		if len(cfg.PairBW) != cfg.N {
			return nil, fmt.Errorf("platform: PairBW must be %d×%d", cfg.N, cfg.N)
		}
		p.PairBW = make([][]float64, cfg.N) // the platform's own copy
		p.pair = make([][]sim.LinkID, cfg.N)
		for i := range p.pair {
			if len(cfg.PairBW[i]) != cfg.N {
				return nil, fmt.Errorf("platform: PairBW must be %d×%d", cfg.N, cfg.N)
			}
			p.PairBW[i] = slices.Clone(cfg.PairBW[i])
			p.pair[i] = make([]sim.LinkID, cfg.N)
			for j := range p.pair[i] {
				p.pair[i][j] = -1
			}
		}
		for i := 0; i < cfg.N; i++ {
			for j := 0; j < cfg.N; j++ {
				if i == j {
					if cfg.PairBW[i][j] != 0 {
						return nil, fmt.Errorf("platform: PairBW[%d][%d] must be 0", i, j)
					}
					continue
				}
				bw := cfg.PairBW[i][j]
				if bw != 0 && !rate(bw) {
					return nil, fmt.Errorf("platform: PairBW[%d][%d] = %g must be finite and non-negative (0: no link)", i, j, bw)
				}
				if bw > 0 {
					p.pair[i][j] = p.Topo.AddLink(fmt.Sprintf("nvlink-%d<-%d", i, j), bw)
					p.nvlink = append(p.nvlink, p.pair[i][j])
				}
			}
		}
	case SwitchBased:
		if !rate(cfg.SwitchPortBW) {
			return nil, fmt.Errorf("platform: switch-based platform needs a finite, positive SwitchPortBW")
		}
		p.out = make([]sim.LinkID, cfg.N)
		p.in = make([]sim.LinkID, cfg.N)
		for g := 0; g < cfg.N; g++ {
			p.out[g] = p.Topo.AddLink(fmt.Sprintf("gpu%d-nvswitch-out", g), cfg.SwitchPortBW)
			p.in[g] = p.Topo.AddLink(fmt.Sprintf("gpu%d-nvswitch-in", g), cfg.SwitchPortBW)
			p.nvlink = append(p.nvlink, p.out[g], p.in[g])
		}
		// Derive a uniform PairBW view so callers can treat both kinds
		// alike; the per-pair capacity on a switch is the full port rate.
		p.PairBW = make([][]float64, cfg.N)
		for i := range p.PairBW {
			p.PairBW[i] = make([]float64, cfg.N)
			for j := range p.PairBW[i] {
				if i != j {
					p.PairBW[i][j] = cfg.SwitchPortBW
				}
			}
		}
	default:
		return nil, fmt.Errorf("platform: unknown kind %d", cfg.Kind)
	}
	if cfg.Network != nil {
		p.hasNet = true
		p.Net = *cfg.Network
		p.nic = p.Topo.AddLink("nic", cfg.Network.LinkBW)
	}
	p.buildUnorganized()
	p.deriveRoutes()
	return p, nil
}

// deriveRoutes fills the route tables every accessor reads, GPU by GPU:
// each path, T_{i←j} = 1/LinkBW from it, and then the dedication row, which
// reads the row's tolerances.
func (p *Platform) deriveRoutes() {
	ns := p.NumSources()
	p.paths, p.tpb, p.ded = make([][][]sim.LinkID, p.N), make([][]float64, p.N), make([][]float64, p.N)
	for g := range p.paths {
		p.paths[g], p.tpb[g] = make([][]sim.LinkID, ns), make([]float64, ns)
		for j := range p.paths[g] {
			p.paths[g][j] = p.route(g, SourceID(j))
			if bw, ok := p.LinkBW(g, SourceID(j)); ok {
				p.tpb[g][j] = 1 / bw
			}
		}
		p.ded[g] = p.dedication(g)
	}
}

// rate reports whether x is a usable bandwidth or per-core rate: finite and
// positive (NaN is neither).
func rate(x float64) bool { return x > 0 && !math.IsInf(x, 1) }

// mustNew panics on error; used by the stock constructors whose configs are
// known-good.
func mustNew(cfg Config) *Platform {
	p, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return p
}

// ServerAConfig is the config behind ServerA, exposed so callers can derive
// variants (most usefully clustered ones via ClusterOf).
func ServerAConfig() Config {
	const n = 4
	pair := make([][]float64, n)
	for i := range pair {
		pair[i] = make([]float64, n)
		for j := range pair[i] {
			if i != j {
				pair[i][j] = 50e9
			}
		}
	}
	return Config{
		Name: "ServerA-4xV100", Kind: HardWired, GPU: V100x16, N: n,
		PCIeBW: 12e9, DRAMBW: 140e9, PairBW: pair,
	}
}

// ServerA is the paper's 4×V100 hard-wired server: uniform, fully connected,
// 50 GB/s per directed pair (150 GB/s total outbound).
func ServerA() *Platform { return mustNew(ServerAConfig()) }

// dgx1Double and dgx1Single are the NVLink pairs of the DGX-1 (V100) hybrid
// cube-mesh: two quads {0..3} and {4..7}, each GPU with six links.
var (
	dgx1Double = [][2]int{{0, 3}, {0, 4}, {1, 2}, {1, 5}, {2, 6}, {3, 7}, {5, 6}, {4, 7}}
	dgx1Single = [][2]int{{0, 1}, {2, 3}, {4, 5}, {6, 7}, {0, 2}, {1, 3}, {4, 6}, {5, 7}}
)

// ServerBConfig is the config behind ServerB.
func ServerBConfig() Config {
	const n = 8
	pair := make([][]float64, n)
	for i := range pair {
		pair[i] = make([]float64, n)
	}
	set := func(a, b int, bw float64) {
		pair[a][b] = bw
		pair[b][a] = bw
	}
	for _, e := range dgx1Double {
		set(e[0], e[1], 50e9)
	}
	for _, e := range dgx1Single {
		set(e[0], e[1], 25e9)
	}
	return Config{
		Name: "ServerB-8xV100", Kind: HardWired, GPU: V100x32, N: n,
		PCIeBW: 12e9, DRAMBW: 160e9, PairBW: pair,
	}
}

// ServerB is the paper's 8×V100 DGX-1 server: non-uniform hard-wired
// topology with double (50 GB/s) and single (25 GB/s) links and unconnected
// cross-quad pairs.
func ServerB() *Platform { return mustNew(ServerBConfig()) }

// ServerCConfig is the config behind ServerC.
func ServerCConfig() Config {
	return Config{
		Name: "ServerC-8xA100", Kind: SwitchBased, GPU: A100x80, N: 8,
		PCIeBW: 25e9, DRAMBW: 320e9, SwitchPortBW: 270e9,
	}
}

// ServerC is the paper's 8×A100 NVSwitch server (DGX A100-like), 270 GB/s
// effective per-GPU port bandwidth.
func ServerC() *Platform { return mustNew(ServerCConfig()) }

// configByName returns the config of the paper's server "A", "B" or "C"
// (either case) — what the commands' -server flag names.
func configByName(name string) (Config, error) {
	switch name {
	case "A", "a":
		return ServerAConfig(), nil
	case "B", "b":
		return ServerBConfig(), nil
	case "C", "c":
		return ServerCConfig(), nil
	}
	return Config{}, fmt.Errorf("unknown server %q (have A, B, C)", name)
}

// ByName builds the server configByName names.
func ByName(name string) (*Platform, error) {
	cfg, err := configByName(name)
	if err != nil {
		return nil, err
	}
	return New(cfg)
}

// ClusterOf turns a single-machine config into one machine of a cluster
// joined by the given fabric. Every machine in the cluster is identical, so
// one Platform value describes each of them; the Machines count feeds the
// solver's replicate-vs-fetch trade-off and the serving router.
func ClusterOf(cfg Config, net NetworkConfig) (*Platform, error) {
	cfg.Network = &net
	cfg.Name = fmt.Sprintf("%s-x%d", cfg.Name, net.Machines)
	return New(cfg)
}

// Host returns the SourceID of host memory on this platform.
func (p *Platform) Host() SourceID { return SourceID(p.N) }

// Network returns the SourceID of the remote-machine tier. Only meaningful
// on clustered platforms (HasNetwork); elsewhere no path reaches it.
func (p *Platform) Network() SourceID { return SourceID(p.N + 1) }

// HasNetwork reports whether this platform is one machine of a cluster.
func (p *Platform) HasNetwork() bool { return p.hasNet }

// Tier classes a source by where it sits relative to the destination GPU:
// the local/remote/host split that FEM organises cores around (§5.1) and
// the §6.2 model prices, plus the cluster's network tier. Its values index
// every per-tier array, in this order.
type Tier int

const (
	TierLocal Tier = iota
	TierRemote
	TierHost
	TierNetwork
	// NumTiers is the length of a per-tier array.
	NumTiers = 4
)

func (t Tier) String() string {
	if t < 0 || t >= NumTiers {
		return fmt.Sprintf("tier(%d)", int(t))
	}
	return [NumTiers]string{"local", "remote", "host", "network"}[t]
}

// Tier returns src's tier as seen from GPU dst.
func (p *Platform) Tier(dst int, src SourceID) Tier {
	switch {
	case int(src) == dst:
		return TierLocal
	case src == p.Host():
		return TierHost
	case p.hasNet && src == p.Network():
		return TierNetwork
	default:
		return TierRemote
	}
}

// Machines returns the cluster width (1 for single-machine platforms).
func (p *Platform) Machines() int {
	if !p.hasNet {
		return 1
	}
	return p.Net.Machines
}

// NumSources returns the number of source locations: GPUs plus host, plus
// the network tier on clustered platforms.
func (p *Platform) NumSources() int {
	if p.hasNet {
		return p.N + 2
	}
	return p.N + 1
}

// Connected reports whether GPU i can read GPU j's memory over NVLink or
// NVSwitch. A GPU is always "connected" to itself and never to the host via
// this predicate (host is reachable by every GPU over PCIe).
func (p *Platform) Connected(i, j int) bool {
	if i == j {
		return true
	}
	_, ok := p.Path(i, SourceID(j))
	return ok && j < p.N
}

// Path returns the link path for GPU dst reading from src, or ok=false when
// the pair is unreachable (hard-wired unconnected GPUs must fall back to
// host; that fallback is a policy decision, not a path). The slice is the
// platform's own: read it, do not write it.
func (p *Platform) Path(dst int, src SourceID) (path []sim.LinkID, ok bool) {
	if dst < 0 || dst >= p.N || src < 0 || int(src) >= len(p.paths[dst]) {
		return nil, false
	}
	path = p.paths[dst][src]
	return path, path != nil
}

// route builds the link path of one (dst, src) pair for New's table; nil
// when the pair is unreachable.
func (p *Platform) route(dst int, src SourceID) []sim.LinkID {
	switch {
	case src == p.Host():
		return []sim.LinkID{p.dram, p.pcie[dst]}
	case p.hasNet && src == p.Network():
		// A cross-machine gather lands in this machine's DRAM staging area
		// and crosses PCIe into the GPU; charging our own DRAM (not the
		// remote machine's) models the reciprocal load of serving the other
		// machines' requests in the symmetric steady state, the same trick
		// the NVSwitch model uses with out/in ports.
		return []sim.LinkID{p.dram, p.nic, p.pcie[dst]}
	case int(src) == dst:
		return []sim.LinkID{p.hbm[dst]}
	case p.Kind == SwitchBased:
		return []sim.LinkID{p.hbm[src], p.out[src], p.in[dst]}
	case p.pair[dst][src] < 0:
		return nil
	}
	return []sim.LinkID{p.hbm[src], p.pair[dst][src]}
}

// RCore returns the per-core sustained gather rate for dst reading src.
func (p *Platform) RCore(dst int, src SourceID) float64 {
	switch {
	case src == p.Host():
		return p.GPU.RCoreHost
	case p.hasNet && src == p.Network():
		// Network gathers are staged through host memory, so the issuing
		// cores sustain the host rate.
		return p.GPU.RCoreHost
	case int(src) == dst:
		return p.GPU.RCoreLocal
	default:
		return p.GPU.RCoreRemote
	}
}

// LinkBW returns the capacity of the narrowest link on the path from src to
// dst — the plateau bandwidth a dedicated core group can reach. ok=false for
// unconnected pairs.
func (p *Platform) LinkBW(dst int, src SourceID) (bw float64, ok bool) {
	path, ok := p.Path(dst, src)
	if !ok {
		return 0, false
	}
	bw = p.Topo.Links[path[0]].Capacity
	for _, l := range path[1:] {
		if c := p.Topo.Links[l].Capacity; c < bw {
			bw = c
		}
	}
	return bw, true
}

// Tolerance returns the number of cores that saturate the path from src to
// dst (paper Fig. 6): capacity divided by the per-core rate. ok=false for
// unconnected pairs.
func (p *Platform) Tolerance(dst int, src SourceID) (cores float64, ok bool) {
	bw, ok := p.LinkBW(dst, src)
	if !ok {
		return 0, false
	}
	return bw / p.RCore(dst, src), true
}

// TimePerByteTable returns the solver's T_{dst←src} (paper §6.2) as an
// N x NumSources matrix — tbl[dst][src], seconds to move one byte at the
// path's plateau bandwidth, 1/LinkBW; 0 for unconnected pairs (the paper
// sets T to infinity and prunes the variable; callers should do the same).
// The matrix is the platform's own: read it, do not write it.
func (p *Platform) TimePerByteTable() [][]float64 { return p.tpb }

// NVLinkIDs returns every NVLink/NVSwitch link ID, for aggregate
// utilization reporting. The slice is the platform's own: read it, do not
// write it.
func (p *Platform) NVLinkIDs() []sim.LinkID { return p.nvlink }

// PCIeIDs returns all PCIe link IDs, GPU by GPU. The slice is the
// platform's own: read it, do not write it.
func (p *Platform) PCIeIDs() []sim.LinkID { return p.pcie }
