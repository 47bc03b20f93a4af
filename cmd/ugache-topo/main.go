// ugache-topo prints the simulated platform topologies and the Fig. 6
// bandwidth-profile microbenchmark.
//
// Usage:
//
//	ugache-topo                 # all three stock servers
//	ugache-topo -server B       # one server
//	ugache-topo -nodes 4        # 4-machine clusters joined by the fabric
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"ugache/internal/platform"
)

func main() {
	server := flag.String("server", "", "A, B, or C (empty = all)")
	nodes := flag.Int("nodes", 1, "machines in the cluster (1 = single machine, no fabric)")
	netBW := flag.Float64("net-bw", 25e9, "inter-machine link bandwidth per NIC, bytes/s")
	netLatency := flag.Duration("net-latency", 10*time.Microsecond, "one-way inter-machine latency")
	flag.Parse()

	if *nodes < 1 {
		fmt.Fprintf(os.Stderr, "ugache-topo: -nodes must be >= 1, got %d\n", *nodes)
		os.Exit(1)
	}
	build := func(name string) *platform.Platform {
		var p *platform.Platform
		cfg, err := platform.ConfigByName(name)
		switch {
		case err != nil:
		case *nodes > 1:
			p, err = platform.ClusterOf(cfg, platform.NetworkConfig{Machines: *nodes, LinkBW: *netBW, LatencySec: netLatency.Seconds()})
		default:
			p, err = platform.New(cfg)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "ugache-topo: %v\n", err)
			os.Exit(1)
		}
		return p
	}
	if *server != "" {
		show(build(*server))
		return
	}
	for _, k := range []string{"A", "B", "C"} {
		show(build(k))
		fmt.Println()
	}
}

func show(p *platform.Platform) {
	if p.HasNetwork() {
		fmt.Printf("%s: %d machines × %d × %s, %s\n", p.Name, p.Machines(), p.N, p.GPU.Name, p.Kind)
	} else {
		fmt.Printf("%s: %d × %s, %s\n", p.Name, p.N, p.GPU.Name, p.Kind)
	}
	fmt.Printf("  per-GPU PCIe %.0f GB/s, host DRAM %.0f GB/s shared\n", p.PCIeBW/1e9, p.DRAMBW/1e9)
	if p.Kind == platform.SwitchBased {
		fmt.Printf("  NVSwitch port %.0f GB/s per GPU (out and in)\n", p.SwitchPortBW/1e9)
	} else {
		fmt.Println("  NVLink pair bandwidth (GB/s; '-' = unconnected):")
		fmt.Print("      ")
		for j := 0; j < p.N; j++ {
			fmt.Printf("g%-4d", j)
		}
		fmt.Println()
		for i := 0; i < p.N; i++ {
			fmt.Printf("  g%-2d ", i)
			for j := 0; j < p.N; j++ {
				switch {
				case i == j:
					fmt.Printf("%-5s", ".")
				case p.PairBW[i][j] > 0:
					fmt.Printf("%-5.0f", p.PairBW[i][j]/1e9)
				default:
					fmt.Printf("%-5s", "-")
				}
			}
			fmt.Println()
		}
	}
	if p.HasNetwork() {
		// The network tier: every machine is a replica of this one, joined
		// by one NIC; remote rows land in local DRAM and cross local PCIe.
		fmt.Printf("  network tier: %d machines over %.0f GB/s NICs, %.0fus one-way\n",
			p.Machines(), p.Net.LinkBW/1e9, p.Net.LatencySec*1e6)
		if bw, ok := p.LinkBW(0, p.Network()); ok {
			fmt.Printf("    wire path dram->nic->pcie, bottleneck %.0f GB/s; owned shard 1/%d served host-side\n",
				bw/1e9, p.Machines())
		}
	}
	// Tolerances (Fig. 6's knees).
	hostTol, _ := p.Tolerance(0, p.Host())
	locTol, _ := p.Tolerance(0, 0)
	fmt.Printf("  core tolerance: host %.1f, local %.1f", hostTol, locTol)
	if p.N > 1 {
		if remTol, ok := p.Tolerance(0, 1); ok {
			fmt.Printf(", remote(g1) %.1f", remTol)
		}
	}
	if p.HasNetwork() {
		if netTol, ok := p.Tolerance(0, p.Network()); ok {
			fmt.Printf(", network %.1f", netTol)
		}
	}
	fmt.Printf(" of %d SMs\n", p.GPU.SMs)
	// FEM dedication for GPU 0 (§5.3).
	ded := p.FEMDedication(0)
	fmt.Print("  FEM dedication (gpu0): ")
	for j, c := range ded {
		if c == 0 {
			continue
		}
		name := fmt.Sprintf("g%d", j)
		switch {
		case j == int(p.Host()):
			name = "host"
		case p.HasNetwork() && j == int(p.Network()):
			name = "net"
		}
		fmt.Printf("%s=%.1f ", name, c)
	}
	fmt.Println("(local = padding)")
}
