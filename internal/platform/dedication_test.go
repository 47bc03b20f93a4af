package platform

import (
	"math"
	"testing"
)

func TestFEMDedicationServerA(t *testing.T) {
	p := ServerA()
	ded := p.FEMDedication(0)
	if ded[0] != 0 {
		t.Fatalf("local dedication %g, want 0 (padding only)", ded[0])
	}
	// Host: ceil(12e9 / 1.5e9) = 8 cores, < 10% of... 80 cores = 10%.
	if ded[p.Host()] != 8 {
		t.Fatalf("host dedication %g, want 8", ded[p.Host()])
	}
	// Remaining 72 split evenly over 3 equal-bandwidth remotes.
	for j := 1; j < 4; j++ {
		if math.Abs(ded[j]-24) > 1e-9 {
			t.Fatalf("remote %d dedication %g, want 24", j, ded[j])
		}
	}
	// Total never exceeds the SM count.
	sum := 0.0
	for _, c := range ded {
		sum += c
	}
	if sum > float64(p.GPU.SMs)+1e-9 {
		t.Fatalf("dedication total %g > %d SMs", sum, p.GPU.SMs)
	}
}

func TestFEMDedicationServerB(t *testing.T) {
	p := ServerB()
	ded := p.FEMDedication(0)
	// GPU0 connects to 1 (25), 2 (25), 3 (50), 4 (50): slices by ratio.
	if ded[5] != 0 || ded[6] != 0 || ded[7] != 0 {
		t.Fatal("unconnected peers must get no cores")
	}
	if math.Abs(ded[3]-2*ded[1]) > 1e-9 {
		t.Fatalf("bandwidth-proportional slicing violated: %g vs %g", ded[3], ded[1])
	}
	rem := float64(p.GPU.SMs) - ded[p.Host()]
	if math.Abs(ded[1]+ded[2]+ded[3]+ded[4]-rem) > 1e-9 {
		t.Fatal("remote slices must consume all remaining cores")
	}
}

func TestFEMDedicationServerC(t *testing.T) {
	p := ServerC()
	ded := p.FEMDedication(3)
	// Host: ceil(25e9/2.5e9) = 10.
	if ded[p.Host()] != 10 {
		t.Fatalf("host %g", ded[p.Host()])
	}
	each := (108.0 - 10) / 7
	for j := 0; j < 8; j++ {
		if j == 3 {
			continue
		}
		if math.Abs(ded[j]-each) > 1e-9 {
			t.Fatalf("remote %d gets %g, want %g", j, ded[j], each)
		}
	}
	// The collision-freedom property: aggregate demand on any source's
	// outbound port from all 7 readers stays within the port.
	demand := 7 * each * p.GPU.RCoreRemote
	if demand > p.SwitchPortBW*1.05 {
		t.Fatalf("aggregate demand %g exceeds port %g", demand, p.SwitchPortBW)
	}
}

func TestEffectiveBW(t *testing.T) {
	c := ServerC()
	// Remote: 14 cores × 2.6 GB/s = 36.4 GB/s, below the 270 port.
	bw, ok := c.EffectiveBW(0, 1)
	if !ok {
		t.Fatal("not ok")
	}
	want := (108.0 - 10) / 7 * 2.6e9
	if math.Abs(bw-want) > 1e-3*want {
		t.Fatalf("remote effective bw %g, want %g", bw, want)
	}
	// Host: min(PCIe 25, DRAM 320/8 = 40, 10×2.5=25) = 25 — per-GPU PCIe
	// binds; the DRAM/N share would bind only on hosts with slower memory.
	if bw, _ := c.EffectiveBW(0, c.Host()); math.Abs(bw-25e9) > 1e6 {
		t.Fatalf("host effective bw %g", bw)
	}
	// Local: min(650, 108×6=648) = 648.
	if bw, _ := c.EffectiveBW(0, 0); math.Abs(bw-648e9) > 1e6 {
		t.Fatalf("local effective bw %g", bw)
	}
	// Unconnected pair on Server B.
	b := ServerB()
	if _, ok := b.EffectiveBW(0, 5); ok {
		t.Fatal("unconnected pair has effective bw")
	}
	// Hard-wired remote is link-bound: pair 25e9 < 24ish cores × 1.9.
	bwB, _ := b.EffectiveBW(0, 1)
	if bwB > 25e9+1 {
		t.Fatalf("hard-wired remote bw %g exceeds link", bwB)
	}
}

// TestFewSMsStillReachEverySource: a GPU with too few SMs to spare a whole
// core still dedicates a fraction of one to every source its paths reach,
// as remote groups already take fractions, so no reachable source prices at
// +Inf: a 1-SM Server A reaches host, a 2-SM clustered one the network.
func TestFewSMsStillReachEverySource(t *testing.T) {
	one := ServerAConfig()
	one.GPU.SMs = 1
	a, err := New(one)
	if err != nil {
		t.Fatal(err)
	}
	two := ServerAConfig()
	two.GPU.SMs = 2
	cl, err := ClusterOf(two, DefaultNetwork(2))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []*Platform{a, cl} {
		for g := 0; g < p.N; g++ {
			for j := 0; j < p.NumSources(); j++ {
				if _, reached := p.Path(g, SourceID(j)); !reached || j == g {
					continue
				}
				if bw, ok := p.EffectiveBW(g, SourceID(j)); !ok || !(bw > 0) {
					t.Fatalf("%s: gpu %d reaches source %d with %g cores, EffectiveBW %g %v",
						p.Name, g, j, p.FEMDedication(g)[j], bw, ok)
				}
			}
		}
	}
}
