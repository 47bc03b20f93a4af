package bench

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// -update re-records testdata/*.golden from this tree (make figures-golden).
var update = flag.Bool("update", false, "rewrite internal/bench/testdata/*.golden with the bodies this tree renders")

// quickOpt keeps experiment smoke tests fast.
func quickOpt() Options {
	return Options{Scale: 0.03, Iters: 1, Seed: 42, Quick: true}
}

func TestRegistryComplete(t *testing.T) {
	// Every table and figure of the evaluation must be registered (the
	// DESIGN.md experiment index).
	want := []string{
		"table1", "table3", "fig2", "fig4", "fig6", "fig10", "fig11",
		"fig12", "fig13", "fig14", "fig15", "fig16", "fig17", "summary",
		"ablate-blocks", "ablate-policies", "ablate-dedication",
	}
	for _, name := range want {
		if _, ok := Registry[name]; !ok {
			t.Errorf("experiment %q not registered", name)
		}
	}
	if len(Names()) < len(want) {
		t.Fatalf("registry has %d entries, want >= %d", len(Names()), len(want))
	}
}

func TestRunUnknown(t *testing.T) {
	if _, err := Run("nope", quickOpt()); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestOptionNormalization(t *testing.T) {
	o := Options{}.normalize()
	if o.Scale != 1 || o.Iters != 3 || o.Seed == 0 {
		t.Fatalf("normalize: %+v", o)
	}
	if (Options{Scale: 0.5}).memScale() != 0.005 {
		t.Fatal("memScale wrong")
	}
}

// TestExperimentsSmoke runs every registered experiment at a tiny scale and
// compares the body with its checked-in golden, so a change that moves a
// cell shows which one in review. This is the integration test of the whole
// reproduction pipeline. ablate-blocks is only checked to render: its
// solve(ms) column is the one wall-clock figure in any body.
func TestExperimentsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are seconds each; skipped with -short")
	}
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			res, err := Run(name, quickOpt())
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if res.Name != name || len(res.Text) < 40 {
				t.Fatalf("%s: degenerate output %q", name, res.Text)
			}
			if !strings.Contains(res.Text, "=") {
				t.Fatalf("%s: no table rendered", name)
			}
			if name == "ablate-blocks" {
				return
			}
			golden := filepath.Join("testdata", name+".golden")
			if *update {
				if err := os.WriteFile(golden, []byte(res.Text), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v (record it with make figures-golden)", err)
			}
			if res.Text != string(want) {
				t.Fatalf("%s moved from %s (make figures-golden re-records it if the move is meant)\n--- got ---\n%s\n--- want ---\n%s",
					name, golden, res.Text, want)
			}
		})
	}
}

func TestDatasetCaching(t *testing.T) {
	o := quickOpt().normalize()
	g, w := gnnDatasetsFor(o)[0], dlrDatasetsFor(o)[0]
	d1, err := dataset(g.Name, o, g.Build)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := dataset(g.Name, o, g.Build)
	if err != nil {
		t.Fatal(err)
	}
	if d1 != d2 {
		t.Fatal("dataset not cached")
	}
	w1, err := dataset(w.Name, o, w.Build)
	if err != nil {
		t.Fatal(err)
	}
	w2, _ := dataset(w.Name, o, w.Build)
	if w1 != w2 {
		t.Fatal("dlr dataset not cached")
	}
}

func TestFigure2Shape(t *testing.T) {
	// The central motivational figure: verify the rendered numbers exhibit
	// the paper's shape (partition flat-lines past 1/N coverage; UGache
	// never worse than both baselines at the highest ratio).
	res, err := Run("fig2", quickOpt())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Text, "Part.Global") || !strings.Contains(res.Text, "UGache(ms)") {
		t.Fatalf("missing series:\n%s", res.Text)
	}
}

func TestExperimentDeterminism(t *testing.T) {
	// Identical options must render byte-identical reports — the whole
	// pipeline is seeded and free of wall-clock or map-order leaks. The
	// memos are dropped between the two runs, so the second one rebuilds
	// its datasets and recomputes its reports (fig14 samples a graph, fig4
	// two DLR datasets).
	defer ResetCaches()
	for _, name := range []string{"fig6", "table3", "fig9", "ablate-dedication", "fig14", "fig4"} {
		ResetCaches()
		a, err := Run(name, quickOpt())
		if err != nil {
			t.Fatal(err)
		}
		ResetCaches()
		b, err := Run(name, quickOpt())
		if err != nil {
			t.Fatal(err)
		}
		if a.Text != b.Text {
			t.Fatalf("%s is nondeterministic", name)
		}
	}
}
