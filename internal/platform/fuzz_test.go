package platform

import (
	"math"
	"testing"
)

// FuzzPlatformConfig builds hard-wired and switch-based configs of 0-16 GPUs
// whose rates may be zero, negative, tiny, huge, NaN or ±Inf: New either
// refuses the config or returns a platform whose route tables agree. LinkBW
// is the narrowest capacity on Path, TimePerByteTable is 1/LinkBW (0 when
// unreachable), every dedication is a non-negative core count and a GPU's
// sum to at most its SMs, EffectiveBW never exceeds LinkBW, and every
// non-local source a Path reaches has an EffectiveBW.
//
// A pair's rate is one byte of pairs, a pick from a palette around link:
// 0 (no link), link, link/2, NaN, +Inf, -Inf and -link.
func FuzzPlatformConfig(f *testing.F) {
	stock := func(cfg Config) (switched bool, n uint8, sms int, local, rLocal, rRemote, rHost, pcie, dram, link float64, pairs []byte) {
		switched, link = cfg.Kind == SwitchBased, cfg.SwitchPortBW
		if !switched {
			link = 50e9
			for _, row := range cfg.PairBW {
				for _, bw := range row {
					pairs = append(pairs, map[float64]byte{0: 0, 50e9: 1, 25e9: 2}[bw])
				}
			}
		}
		g := cfg.GPU
		return switched, uint8(cfg.N), g.SMs, g.LocalBW, g.RCoreLocal, g.RCoreRemote, g.RCoreHost, cfg.PCIeBW, cfg.DRAMBW, link, pairs
	}
	for _, cfg := range []Config{ServerAConfig(), ServerBConfig(), ServerCConfig()} {
		sw, n, sms, local, rl, rr, rh, pcie, dram, link, pairs := stock(cfg)
		f.Add(sw, n, sms, local, rl, rr, rh, pcie, dram, link, pairs, uint8(0), 0.0, 0.0)
		f.Add(sw, n, sms, local, rl, rr, rh, pcie, dram, link, pairs, uint8(2), 25e9, 10e-6)
	}
	nan, inf := math.NaN(), math.Inf(1)
	f.Add(true, uint8(16), 1, 1e-300, 1e300, 1e-300, 1e300, 1e-300, 1e300, 1e300, []byte(nil), uint8(3), 1e-300, 0.0)
	f.Add(false, uint8(3), 80, nan, 3e9, 1.9e9, 1.5e9, 12e9, 140e9, 50e9, []byte{0, 1, 1, 1, 0, 1, 1, 1, 0}, uint8(0), 0.0, 0.0)
	f.Add(false, uint8(3), 80, 240e9, 3e9, 1.9e9, 1.5e9, 12e9, 140e9, 50e9, []byte{0, 3, 4, 5, 0, 6, 1, 2, 0}, uint8(0), 0.0, 0.0)
	f.Add(true, uint8(4), 80, 240e9, 3e9, 1.9e9, 1.5e9, inf, -inf, 0.0, []byte(nil), uint8(2), nan, inf)
	f.Add(false, uint8(3), 80, 240e9, 3e9, 1.9e9, 1.5e9, 12e9, 140e9, 1e308, []byte{0, 1, 1, 1, 0, 2, 1, 1, 0}, uint8(0), 0.0, 0.0)
	f.Fuzz(func(t *testing.T, switched bool, n uint8, sms int, local, rLocal, rRemote, rHost, pcie, dram, link float64,
		pairs []byte, machines uint8, nic, latency float64) {
		cfg := Config{
			Name: "fuzz", Kind: HardWired, N: int(n % 17), PCIeBW: pcie, DRAMBW: dram,
			GPU: GPUModel{SMs: sms, LocalBW: local, RCoreLocal: rLocal, RCoreRemote: rRemote, RCoreHost: rHost},
		}
		if switched {
			cfg.Kind, cfg.SwitchPortBW = SwitchBased, link
		} else {
			palette := []float64{0, link, link / 2, math.NaN(), math.Inf(1), math.Inf(-1), -link}
			cfg.PairBW = make([][]float64, cfg.N)
			for i := range cfg.PairBW {
				cfg.PairBW[i] = make([]float64, cfg.N)
				for j := range cfg.PairBW[i] {
					if k := i*cfg.N + j; k < len(pairs) {
						cfg.PairBW[i][j] = palette[int(pairs[k])%len(palette)]
					}
				}
			}
		}
		if machines > 0 {
			cfg.Network = &NetworkConfig{Machines: int(machines), LinkBW: nic, LatencySec: latency}
		}
		p, err := New(cfg)
		if err != nil {
			return
		}
		ns := p.NumSources()
		for _, bad := range [][2]int{{-1, 0}, {p.N, 0}, {0, -1}, {0, ns}} {
			if path, ok := p.Path(bad[0], SourceID(bad[1])); ok || path != nil {
				t.Fatalf("Path(%d, %d) = %v, %v outside the platform", bad[0], bad[1], path, ok)
			}
		}
		tpb := p.TimePerByteTable()
		for g := 0; g < p.N; g++ {
			sum := 0.0
			for j, cores := range p.FEMDedication(g) {
				if !(cores >= 0) || math.IsInf(cores, 1) {
					t.Fatalf("gpu %d dedicates %g cores to source %d", g, cores, j)
				}
				sum += cores
			}
			if sum > float64(p.GPU.SMs)*(1+1e-12) {
				t.Fatalf("gpu %d dedicates %g cores of %d SMs", g, sum, p.GPU.SMs)
			}
			for j := 0; j < ns; j++ {
				src := SourceID(j)
				path, ok := p.Path(g, src)
				bw, okBW := p.LinkBW(g, src)
				if ok != okBW || ok != (path != nil) {
					t.Fatalf("gpu %d source %d: Path %v %v, LinkBW ok %v", g, j, path, ok, okBW)
				}
				narrowest, want := math.Inf(1), 0.0
				for _, l := range path {
					narrowest = math.Min(narrowest, p.Topo.Links[l].Capacity)
				}
				if ok {
					want = 1 / narrowest
					if bw != narrowest {
						t.Fatalf("gpu %d source %d: LinkBW %g, narrowest link %g", g, j, bw, narrowest)
					}
				}
				if tpb[g][j] != want {
					t.Fatalf("gpu %d source %d: time per byte %g, want %g", g, j, tpb[g][j], want)
				}
				eff, okEff := p.EffectiveBW(g, src)
				if okEff && (!ok || !(eff <= bw)) {
					t.Fatalf("gpu %d source %d: EffectiveBW %g above LinkBW %g (path %v)", g, j, eff, bw, ok)
				}
				if ok && j != g && !okEff {
					t.Fatalf("gpu %d reaches source %d with %g cores, but EffectiveBW reports it unreachable",
						g, j, p.FEMDedication(g)[j])
				}
			}
		}
	})
}
