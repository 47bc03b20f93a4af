// ugache-topo prints the simulated platform topologies: link bandwidths,
// each path's core tolerance and the §5.3 FEM core dedication. The Fig. 6
// bandwidth-profile microbenchmark is `ugache-bench -exp fig6`.
//
// Usage:
//
//	ugache-topo                 # all three stock servers
//	ugache-topo -server B       # one server
package main

import (
	"flag"
	"fmt"
	"io"
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
		show(os.Stdout, build(*server))
		return
	}
	for _, k := range []string{"A", "B", "C"} {
		show(os.Stdout, build(k))
		fmt.Println()
	}
}

func show(w io.Writer, p *platform.Platform) {
	fmt.Fprintf(w, "%s: %d × %s, %s\n", p.Name, p.N, p.GPU.Name, p.Kind)
	fmt.Fprintf(w, "  per-GPU PCIe %.0f GB/s, host DRAM %.0f GB/s shared\n", p.PCIeBW/1e9, p.DRAMBW/1e9)
	if p.Kind == platform.SwitchBased {
		fmt.Fprintf(w, "  NVSwitch port %.0f GB/s per GPU (out and in)\n", p.SwitchPortBW/1e9)
	} else {
		fmt.Fprintln(w, "  NVLink pair bandwidth (GB/s; '-' = unconnected):")
		fmt.Fprint(w, "      ")
		for j := 0; j < p.N; j++ {
			fmt.Fprintf(w, "g%-4d", j)
		}
		fmt.Fprintln(w)
		for i := 0; i < p.N; i++ {
			fmt.Fprintf(w, "  g%-2d ", i)
			for j := 0; j < p.N; j++ {
				switch {
				case i == j:
					fmt.Fprintf(w, "%-5s", ".")
				case p.PairBW[i][j] > 0:
					fmt.Fprintf(w, "%-5.0f", p.PairBW[i][j]/1e9)
				default:
					fmt.Fprintf(w, "%-5s", "-")
				}
			}
			fmt.Fprintln(w)
		}
	}
	// Tolerances (Fig. 6's knees).
	hostTol, _ := p.Tolerance(0, p.Host())
	locTol, _ := p.Tolerance(0, 0)
	fmt.Fprintf(w, "  core tolerance: host %.1f, local %.1f", hostTol, locTol)
	if p.N > 1 {
		if remTol, ok := p.Tolerance(0, 1); ok {
			fmt.Fprintf(w, ", remote(g1) %.1f", remTol)
		}
	}
	fmt.Fprintf(w, " of %d SMs\n", p.GPU.SMs)
	// FEM dedication for GPU 0 (§5.3).
	ded := p.FEMDedication(0)
	fmt.Fprint(w, "  FEM dedication (gpu0): ")
	for j, c := range ded {
		if c == 0 {
			continue
		}
		name := fmt.Sprintf("g%d", j)
		if j == int(p.Host()) {
			name = "host"
		}
		fmt.Fprintf(w, "%s=%.1f ", name, c)
	}
	fmt.Fprintln(w, "(local = padding)")
}
