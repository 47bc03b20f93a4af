package telemetry

import (
	"io"
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestCounterShardsMerge(t *testing.T) {
	r := NewRegistry(4)
	c := r.Counter("reqs_total", "requests")
	var wg sync.WaitGroup
	for s := 0; s < 8; s++ { // more workers than shards: modulo reduction
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Add(s, 1)
			}
		}(s)
	}
	wg.Wait()
	if got := c.Value(); got != 8000 {
		t.Fatalf("counter merged to %d, want 8000", got)
	}
	if again := r.Counter("reqs_total", "requests"); again != c {
		t.Fatal("re-registration returned a different counter")
	}
}

func TestFloatCounterConcurrent(t *testing.T) {
	r := NewRegistry(2)
	c := r.FloatCounter("sim_seconds_total", "seconds")
	var wg sync.WaitGroup
	for s := 0; s < 4; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				c.Add(s, 0.5)
			}
		}(s)
	}
	wg.Wait()
	if got := c.Value(); math.Abs(got-1000) > 1e-9 {
		t.Fatalf("float counter %g, want 1000", got)
	}
}

func TestGauge(t *testing.T) {
	r := NewRegistry(1)
	g := r.Gauge("impact", "factor")
	if g.Value() != 0 {
		t.Fatal("fresh gauge not zero")
	}
	g.Set(1.25)
	if g.Value() != 1.25 {
		t.Fatalf("gauge %g", g.Value())
	}
}

func TestHistogramQuantiles(t *testing.T) {
	r := NewRegistry(3)
	h := r.Histogram("lat", "seconds", ExpBuckets(1e-6, 2, 24))
	// 1000 samples spread 1..1000 microseconds across shards.
	for i := 1; i <= 1000; i++ {
		h.Observe(i, float64(i)*1e-6)
	}
	if h.Count() != 1000 {
		t.Fatalf("count %d", h.Count())
	}
	if s := h.sum.Value(); math.Abs(s-500.5e-3) > 1e-9 {
		t.Fatalf("sum %g", s)
	}
	p50 := h.Quantile(0.50)
	if p50 < 300e-6 || p50 > 800e-6 {
		t.Fatalf("p50 %g outside the bucket-resolution window around 500us", p50)
	}
	p99 := h.Quantile(0.99)
	if p99 < 800e-6 || p99 > 1100e-6 {
		t.Fatalf("p99 %g outside the bucket-resolution window around 990us", p99)
	}
	if p50 > p99 {
		t.Fatal("quantiles not monotone")
	}
}

func TestHistogramOverflowBucket(t *testing.T) {
	r := NewRegistry(1)
	h := r.Histogram("small", "x", []float64{1, 2})
	h.Observe(0, 100) // lands in +Inf bucket
	if got := h.Quantile(0.99); got != 2 {
		t.Fatalf("overflow quantile %g, want clamped to highest bound 2", got)
	}
}

func TestRegistryKindClash(t *testing.T) {
	r := NewRegistry(1)
	r.Counter("x", "")
	defer func() {
		if recover() == nil {
			t.Fatal("kind clash did not panic")
		}
	}()
	r.Gauge("x", "")
}

func TestWriteMetricsFormat(t *testing.T) {
	r := NewRegistry(2)
	r.Counter("serve_requests_total", "requests completed").Add(0, 42)
	r.Gauge("cache_refresh_last_duration_seconds", "seconds").Set(28.7)
	h := r.Histogram("serve_request_latency_seconds", "request latency", ExpBuckets(1e-6, 4, 10))
	h.Observe(0, 3e-6)
	h.Observe(1, 9e-6)

	var b strings.Builder
	if err := r.WriteMetrics(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE serve_requests_total counter",
		"serve_requests_total 42",
		"cache_refresh_last_duration_seconds 28.7",
		"# TYPE serve_request_latency_seconds histogram",
		`serve_request_latency_seconds_bucket{le="+Inf"} 2`,
		"serve_request_latency_seconds_count 2",
		`serve_request_latency_seconds{quantile="0.5"}`,
		`serve_request_latency_seconds{quantile="0.99"}`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("metrics output missing %q:\n%s", want, out)
		}
	}
}

func TestSamples(t *testing.T) {
	r := NewRegistry(1)
	r.Counter("b_total", "").Add(0, 2)
	r.FloatCounter("a_seconds", "").Add(0, 1.5)
	samples := r.Samples()
	if len(samples) != 2 || samples[0].Name != "a_seconds" || samples[1].Value != 2 {
		t.Fatalf("samples %+v", samples)
	}
}

func TestHTTPEndpoints(t *testing.T) {
	r := NewRegistry(1)
	r.Counter("serve_requests_total", "requests").Add(0, 7)
	srv := httptest.NewServer(NewHandler(HandlerConfig{Registry: r}))
	defer srv.Close()

	res, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(res.Body)
	res.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), "serve_requests_total 7") {
		t.Fatalf("metrics endpoint output:\n%s", body)
	}

	res, err = srv.Client().Get(srv.URL + "/nope")
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != 404 {
		t.Fatalf("unknown path status %d", res.StatusCode)
	}
}

func TestZeroAllocUpdates(t *testing.T) {
	r := NewRegistry(2)
	c := r.Counter("c", "")
	f := r.FloatCounter("f", "")
	h := r.Histogram("h", "", ExpBuckets(1e-6, 2, 20))
	allocs := testing.AllocsPerRun(200, func() {
		c.Add(1, 1)
		f.Add(1, 0.5)
		h.Observe(1, 3e-5)
	})
	if allocs != 0 {
		t.Fatalf("update path allocates %v per run", allocs)
	}
}
