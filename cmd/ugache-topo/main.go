// ugache-topo prints the simulated platform topologies and the Fig. 6
// bandwidth-profile microbenchmark.
//
// Usage:
//
//	ugache-topo                 # all three stock servers
//	ugache-topo -server B       # one server
package main

import (
	"flag"
	"fmt"
	"os"

	"ugache/internal/platform"
)

func main() {
	server := flag.String("server", "", "A, B, or C (empty = all)")
	flag.Parse()

	build := func(name string) *platform.Platform {
		p, err := platform.ByName(name)
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
	fmt.Printf("%s: %d × %s, %s\n", p.Name, p.N, p.GPU.Name, p.Kind)
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
	// Tolerances (Fig. 6's knees).
	hostTol, _ := p.Tolerance(0, p.Host())
	locTol, _ := p.Tolerance(0, 0)
	fmt.Printf("  core tolerance: host %.1f, local %.1f", hostTol, locTol)
	if p.N > 1 {
		if remTol, ok := p.Tolerance(0, 1); ok {
			fmt.Printf(", remote(g1) %.1f", remTol)
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
		if j == int(p.Host()) {
			name = "host"
		}
		fmt.Printf("%s=%.1f ", name, c)
	}
	fmt.Println("(local = padding)")
}
