package stats

import (
	"math"
	"strings"
	"testing"
)

func TestQuantilesExact(t *testing.T) {
	qs := Quantiles([]float64{4, 1, 3, 2}, 0, 0.5, 1)
	if qs[0] != 1 || qs[2] != 4 {
		t.Fatalf("got %v", qs)
	}
	if math.Abs(qs[1]-2.5) > 1e-12 {
		t.Fatalf("median %v", qs[1])
	}
	if got := Quantiles(nil, 0.5); got[0] != 0 {
		t.Fatal("empty sample should yield zeros")
	}
}

func TestTableRendering(t *testing.T) {
	tab := NewTable("demo", "name", "v1", "v2")
	tab.AddRow("row-a", "1.0", "2.0")
	tab.AddRow("row-b", "3", "4")
	out := tab.String()
	for _, want := range []string{"== demo ==", "name", "row-a", "1.0", "row-b"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	if len(tab.rows) != 2 {
		t.Fatalf("%d rows, want 2", len(tab.rows))
	}
}

func TestRenderSeries(t *testing.T) {
	a := &Series{Name: "a"}
	a.Append(1, 10)
	a.Append(2, 20)
	b := &Series{Name: "b"}
	b.Append(2, 200)
	out := RenderSeries("fig", "x", a, b)
	if !strings.Contains(out, "fig") || !strings.Contains(out, "200") {
		t.Fatalf("bad render:\n%s", out)
	}
	// x=1 has no b value: rendered as "-".
	if !strings.Contains(out, "-") {
		t.Fatalf("missing placeholder:\n%s", out)
	}
}

func TestGeoMean(t *testing.T) {
	if g := GeoMean([]float64{1, 4}); math.Abs(g-2) > 1e-12 {
		t.Fatalf("GeoMean = %v", g)
	}
	if g := GeoMean([]float64{2, -1, 8}); math.Abs(g-4) > 1e-12 {
		t.Fatalf("GeoMean skip nonpositive = %v", g)
	}
	if g := GeoMean(nil); g != 0 {
		t.Fatalf("GeoMean(nil) = %v", g)
	}
}

func TestRenderChart(t *testing.T) {
	a := &Series{Name: "rising"}
	b := &Series{Name: "flat"}
	for x := 0.0; x <= 10; x++ {
		a.Append(x, x*x)
		b.Append(x, 40)
	}
	out := RenderChart("demo", "ratio", "ms", a, b)
	for _, want := range []string{"== demo ==", "rising", "flat", "*", "o", "x: ratio, y: ms"} {
		if !strings.Contains(out, want) {
			t.Fatalf("chart missing %q:\n%s", want, out)
		}
	}
	// Rising series must hit the top row; flat one must not.
	lines := strings.Split(out, "\n")
	if !strings.Contains(lines[1], "*") {
		t.Fatalf("top of chart missing rising series:\n%s", out)
	}
}

func TestRenderChartDegenerate(t *testing.T) {
	if out := RenderChart("empty", "x", "y"); !strings.Contains(out, "no plottable data") {
		t.Fatalf("degenerate chart: %s", out)
	}
	one := &Series{Name: "p"}
	one.Append(1, 5)
	if out := RenderChart("point", "x", "y", one); !strings.Contains(out, "no plottable data") {
		t.Fatalf("single x should be degenerate: %s", out)
	}
}
