package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"ugache/internal/platform"
)

var update = flag.Bool("update", false, "re-record testdata/topo.golden from this tree's output")

// TestTopoGolden pins what ugache-topo prints for the three stock servers,
// in the order and spacing of a bare run: link bandwidths, the tolerances
// and GPU 0's FEM dedication. Run with -update to re-record.
func TestTopoGolden(t *testing.T) {
	var out bytes.Buffer
	for _, name := range []string{"A", "B", "C"} {
		p, err := platform.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		show(&out, p)
		out.WriteString("\n")
	}
	golden := filepath.Join("testdata", "topo.golden")
	if *update {
		if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.String(); got != string(want) {
		t.Errorf("ugache-topo output:\n%s\nwant (%s):\n%s", got, golden, want)
	}
}
