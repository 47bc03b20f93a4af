package telemetry

import (
	"bytes"
	"strings"
	"testing"
)

// TestWriteMetricsEscapesHelp pins the exposition-format escaping: a help
// string carrying literal newlines or backslashes must not break the
// line-oriented scrape.
func TestWriteMetricsEscapesHelp(t *testing.T) {
	reg := NewRegistry(1)
	reg.Counter("evil_total", "first line\nsecond line").Add(0, 1)
	reg.Gauge("path_gauge", `windows C:\temp\cache`).Set(2)
	reg.Histogram("evil_seconds", "histo\nhelp \\ done", []float64{1, 2}).Observe(0, 0.5)

	var buf bytes.Buffer
	if err := reg.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`# HELP evil_total first line\nsecond line`,
		`# HELP path_gauge windows C:\\temp\\cache`,
		`# HELP evil_seconds histo\nhelp \\ done`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	// Every line must be a comment, a sample, or blank — a raw embedded
	// newline would leave a dangling "second line" fragment.
	for _, line := range strings.Split(out, "\n") {
		if line == "" || strings.HasPrefix(line, "# ") {
			continue
		}
		if !strings.HasPrefix(line, "evil_") && !strings.HasPrefix(line, "path_") {
			t.Fatalf("malformed exposition line %q", line)
		}
	}
}

func TestQuantileEdgeCases(t *testing.T) {
	reg := NewRegistry(1)
	h := reg.Histogram("q_seconds", "x", []float64{1, 2, 4})

	// Empty histogram: every quantile reads 0.
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := h.Quantile(q); got != 0 {
			t.Fatalf("empty Quantile(%g) = %g, want 0", q, got)
		}
	}

	// All mass in the +Inf overflow bucket: the highest finite bound caps
	// the estimate at every quantile.
	for i := 0; i < 10; i++ {
		h.Observe(0, 100)
	}
	for _, q := range []float64{0.5, 0.99, 1} {
		if got := h.Quantile(q); got != 4 {
			t.Fatalf("overflow-only Quantile(%g) = %g, want 4 (highest finite bound)", q, got)
		}
	}

	// q=0 and q=1 stay inside the observed bucket range.
	h2 := reg.Histogram("q2_seconds", "x", []float64{1, 2, 4})
	h2.Observe(0, 0.5)
	h2.Observe(0, 1.5)
	if got := h2.Quantile(0); got < 0 || got > 1 {
		t.Fatalf("Quantile(0) = %g, want within first bucket [0, 1]", got)
	}
	if got := h2.Quantile(1); got < 1 || got > 2 {
		t.Fatalf("Quantile(1) = %g, want within second bucket (1, 2]", got)
	}
}

func TestQuantileFromBuckets(t *testing.T) {
	bounds := []float64{1, 2, 4}
	// Degenerate inputs all read 0.
	if got := quantileFromBuckets(nil, nil, 0.99); got != 0 {
		t.Fatalf("nil/nil = %g", got)
	}
	if got := quantileFromBuckets(bounds, nil, 0.99); got != 0 {
		t.Fatalf("nil counts = %g", got)
	}
	if got := quantileFromBuckets(bounds, []uint64{0, 0, 0, 0}, 0.99); got != 0 {
		t.Fatalf("all-zero counts = %g", got)
	}
	// 10 samples uniformly in (1, 2]: the median interpolates to ~1.5.
	if got := quantileFromBuckets(bounds, []uint64{0, 10, 0, 0}, 0.5); got != 1.5 {
		t.Fatalf("median of one full bucket = %g, want 1.5", got)
	}
	// Mass reaching the +Inf bucket reports the highest finite bound.
	if got := quantileFromBuckets(bounds, []uint64{0, 0, 0, 5}, 0.99); got != 4 {
		t.Fatalf("+Inf mass = %g, want 4", got)
	}
	// One fast and 99 slow samples: the p99 sits in the slow bucket.
	if got := quantileFromBuckets(bounds, []uint64{1, 0, 99, 0}, 0.99); got <= 2 || got > 4 {
		t.Fatalf("p99 = %g, want in (2, 4]", got)
	}
}

func TestRegistryFind(t *testing.T) {
	reg := NewRegistry(2)
	if m := reg.Find("nope"); m != nil {
		t.Fatalf("Find on an empty registry = %v", m)
	}
	c := reg.Counter("x_total", "x")
	h := reg.Histogram("x_seconds", "x", []float64{1})
	if got, ok := reg.Find("x_total").(*Counter); !ok || got != c {
		t.Fatalf("Find(x_total) = %v", got)
	}
	if got, ok := reg.Find("x_seconds").(*Histogram); !ok || got != h {
		t.Fatalf("Find(x_seconds) = %v", got)
	}
	// Find never creates.
	if m := reg.Find("still_missing"); m != nil {
		t.Fatalf("Find created %v", m)
	}
	// Value reads the three single-valued kinds through Find; a histogram and
	// a missing name read 0.
	c.Add(0, 2)
	c.Add(1, 3)
	reg.FloatCounter("x_seconds_total", "x").Add(1, 0.5)
	reg.Gauge("x_last", "x").Set(7)
	h.Observe(0, 0.25)
	for name, want := range map[string]float64{"x_total": 5, "x_seconds_total": 0.5, "x_last": 7, "x_seconds": 0, "still_missing": 0} {
		if got := reg.Value(name); got != want {
			t.Fatalf("Value(%s) = %g, want %g", name, got, want)
		}
	}
}

func TestHistogramBucketsMerged(t *testing.T) {
	reg := NewRegistry(2)
	h := reg.Histogram("b_seconds", "x", []float64{1, 2})
	h.Observe(0, 0.5)
	h.Observe(1, 1.5)
	h.Observe(1, 9)
	counts := h.merged()
	if len(counts) != 3 || counts[0] != 1 || counts[1] != 1 || counts[2] != 1 {
		t.Fatalf("merged counts = %v, want one per bucket across shards", counts)
	}
	// The returned slice is a copy; mutating it must not corrupt the
	// histogram.
	counts[0] = 99
	if again := h.merged(); again[0] != 1 {
		t.Fatalf("merged() exposes internal state: %v", again)
	}
}
