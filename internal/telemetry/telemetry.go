// Package telemetry is the observability layer of the serving stack:
// allocation-conscious counters, gauges and fixed-bucket latency histograms,
// plus the HTTP handler (http.go) that serves them as plain-text /metrics
// beside the flight recorder's views (/debug/flight, /debug/timeline, on-demand
// bundles) and the health probes.
//
// The design follows the hot-path memory discipline of DESIGN.md §6.1: a
// metric is registered once (get-or-create, so independently built systems
// may share one Registry) and updated through lock-free per-shard atomics —
// a serving worker updates its own shard and never contends with its peers;
// readers merge the shards on demand. No update path allocates, takes a
// lock, or branches on more than a nil check, so instrumented hot loops
// stay within the allocation budget pinned in BENCH_hotpath.json.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// shardPad keeps adjacent shards on distinct cache lines so per-worker
// updates do not false-share.
type shard struct {
	v atomic.Uint64
	_ [56]byte
}

// Counter is a monotonically increasing integer metric, sharded per worker.
type Counter struct {
	name, help string
	shards     []shard
}

// Add increments the counter by delta on the given shard (a worker index;
// reduced modulo the registry's shard count).
func (c *Counter) Add(shardIdx int, delta int64) {
	c.shards[shardIdx%len(c.shards)].v.Add(uint64(delta))
}

// Value merges all shards.
func (c *Counter) Value() int64 {
	var sum uint64
	for i := range c.shards {
		sum += c.shards[i].v.Load()
	}
	return int64(sum)
}

// FloatCounter is a monotonically increasing float metric (accumulated
// seconds, bytes as float64), sharded per worker. Each shard is updated
// with a CAS loop; with one writer per shard the loop runs once.
type FloatCounter struct {
	name, help string
	shards     []shard
}

// Add accumulates delta on the given shard.
func (c *FloatCounter) Add(shardIdx int, delta float64) {
	s := &c.shards[shardIdx%len(c.shards)].v
	for {
		old := s.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if s.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value merges all shards.
func (c *FloatCounter) Value() float64 {
	sum := 0.0
	for i := range c.shards {
		sum += math.Float64frombits(c.shards[i].v.Load())
	}
	return sum
}

// Gauge is a last-write-wins float metric (refresh durations, impact
// factors). Gauges are written from slow paths, so a single atomic cell is
// enough.
type Gauge struct {
	name, help string
	v          atomic.Uint64
}

// Set stores the gauge value.
func (g *Gauge) Set(v float64) { g.v.Store(math.Float64bits(v)) }

// Value returns the last stored value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.v.Load()) }

// Histogram is a fixed-bucket histogram with per-shard atomic counts. The
// bounds are upper bucket edges; an implicit +Inf bucket catches the rest.
// Observe is lock-free and allocation-free: a linear scan over the bounds
// (bucket counts are small) plus one atomic add.
type Histogram struct {
	name, help string
	bounds     []float64 // sorted upper edges, len = buckets-1 (+Inf implicit)
	counts     []shard   // shards*len(bounds+1), row-major by shard
	sum        FloatCounter
	nshards    int
}

// Observe records one sample on the given shard.
func (h *Histogram) Observe(shardIdx int, v float64) {
	b := 0
	for b < len(h.bounds) && v > h.bounds[b] {
		b++
	}
	row := (shardIdx % h.nshards) * (len(h.bounds) + 1)
	h.counts[row+b].v.Add(1)
	h.sum.Add(shardIdx, v)
}

// Count merges the total number of observations.
func (h *Histogram) Count() int64 {
	var n uint64
	for i := range h.counts {
		n += h.counts[i].v.Load()
	}
	return int64(n)
}

// merged returns the per-bucket counts summed over shards. The caller owns
// the returned slice (read path only).
func (h *Histogram) merged() []uint64 {
	nb := len(h.bounds) + 1
	out := make([]uint64, nb)
	for s := 0; s < h.nshards; s++ {
		for b := 0; b < nb; b++ {
			out[b] += h.counts[s*nb+b].v.Load()
		}
	}
	return out
}

// Quantile estimates the q-quantile (0 <= q <= 1) by linear interpolation
// inside the covering bucket. Samples in the +Inf bucket report the highest
// finite bound.
func (h *Histogram) Quantile(q float64) float64 {
	return quantileFromBuckets(h.bounds, h.merged(), q)
}

// quantileFromBuckets estimates the q-quantile of a bucket-count vector over
// sorted upper edges (len(counts) = len(bounds)+1, the extra entry being the
// +Inf bucket). An empty or all-zero vector reports 0; mass in the +Inf
// bucket reports the highest finite bound.
func quantileFromBuckets(bounds []float64, counts []uint64, q float64) float64 {
	if len(bounds) == 0 || len(counts) == 0 {
		return 0
	}
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	target := q * float64(total)
	acc := 0.0
	for b, c := range counts {
		prev := acc
		acc += float64(c)
		if acc < target || c == 0 {
			continue
		}
		if b >= len(bounds) { // +Inf bucket
			return bounds[len(bounds)-1]
		}
		lo := 0.0
		if b > 0 {
			lo = bounds[b-1]
		}
		frac := (target - prev) / float64(c)
		return lo + frac*(bounds[b]-lo)
	}
	return bounds[len(bounds)-1]
}

// ExpBuckets returns n upper bucket edges starting at lo, each factor times
// the previous — the usual latency-histogram shape.
func ExpBuckets(lo, factor float64, n int) []float64 {
	if lo <= 0 || factor <= 1 || n < 1 {
		panic("telemetry: ExpBuckets needs lo > 0, factor > 1, n >= 1")
	}
	out := make([]float64, n)
	v := lo
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// Registry holds the named metrics of one process (or one system under
// test). Registration is get-or-create: asking twice for the same name and
// kind returns the same metric, so independently constructed subsystems can
// share a registry without coordination. Mixing kinds under one name
// panics — that is a programming error, not a runtime condition.
type Registry struct {
	nshards int

	mu      sync.Mutex
	byName  map[string]interface{}
	ordered []string
}

// NewRegistry creates a registry whose counters and histograms have the
// given number of update shards (one per serving worker; values < 1 are
// raised to 1).
func NewRegistry(shards int) *Registry {
	if shards < 1 {
		shards = 1
	}
	return &Registry{nshards: shards, byName: make(map[string]interface{})}
}

func (r *Registry) lookup(name string, mk func() interface{}) interface{} {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.byName[name]; ok {
		return m
	}
	m := mk()
	r.byName[name] = m
	r.ordered = append(r.ordered, name)
	sort.Strings(r.ordered)
	return m
}

// Find returns the metric registered under name (a *Counter, *FloatCounter,
// *Gauge or *Histogram), or nil when nothing is registered yet. It never
// creates — consumers that observe metrics owned by other subsystems use it
// to resolve handles lazily without fixing a registration order.
func (r *Registry) Find(name string) interface{} {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.byName[name]
}

// Value returns the current value of the counter, float counter or gauge
// registered under name, and 0 when there is none (or it is a histogram,
// which has no single value) — the read a report makes of a metric another
// subsystem owns.
func (r *Registry) Value(name string) float64 {
	switch m := r.Find(name).(type) {
	case *Counter:
		return float64(m.Value())
	case *FloatCounter:
		return m.Value()
	case *Gauge:
		return m.Value()
	}
	return 0
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name, help string) *Counter {
	m := r.lookup(name, func() interface{} {
		return &Counter{name: name, help: help, shards: make([]shard, r.nshards)}
	})
	c, ok := m.(*Counter)
	if !ok {
		panic(fmt.Sprintf("telemetry: %q already registered as %T", name, m))
	}
	return c
}

// FloatCounter returns the named float counter, creating it on first use.
func (r *Registry) FloatCounter(name, help string) *FloatCounter {
	m := r.lookup(name, func() interface{} {
		return &FloatCounter{name: name, help: help, shards: make([]shard, r.nshards)}
	})
	c, ok := m.(*FloatCounter)
	if !ok {
		panic(fmt.Sprintf("telemetry: %q already registered as %T", name, m))
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name, help string) *Gauge {
	m := r.lookup(name, func() interface{} {
		return &Gauge{name: name, help: help}
	})
	g, ok := m.(*Gauge)
	if !ok {
		panic(fmt.Sprintf("telemetry: %q already registered as %T", name, m))
	}
	return g
}

// Histogram returns the named histogram, creating it with the given upper
// bucket edges on first use (later calls reuse the first bounds).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	m := r.lookup(name, func() interface{} {
		if len(bounds) == 0 {
			panic("telemetry: histogram needs at least one bucket bound")
		}
		b := append([]float64(nil), bounds...)
		sort.Float64s(b)
		h := &Histogram{name: name, help: help, bounds: b, nshards: r.nshards}
		h.counts = make([]shard, r.nshards*(len(b)+1))
		h.sum = FloatCounter{name: name + "_sum", shards: make([]shard, r.nshards)}
		return h
	})
	h, ok := m.(*Histogram)
	if !ok {
		panic(fmt.Sprintf("telemetry: %q already registered as %T", name, m))
	}
	return h
}

// Sample is one rendered metric value, the unit consumed by summary tables
// (cmd/ugache-bench -telemetry) and tests.
type Sample struct {
	Name  string
	Value float64
}

// Samples renders every metric to flat name/value pairs, in name order.
// Histograms contribute _count, _sum and p50/p90/p99 quantile samples.
func (r *Registry) Samples() []Sample {
	r.mu.Lock()
	names := append([]string(nil), r.ordered...)
	byName := make(map[string]interface{}, len(r.byName))
	for k, v := range r.byName {
		byName[k] = v
	}
	r.mu.Unlock()

	var out []Sample
	for _, name := range names {
		switch m := byName[name].(type) {
		case *Counter:
			out = append(out, Sample{name, float64(m.Value())})
		case *FloatCounter:
			out = append(out, Sample{name, m.Value()})
		case *Gauge:
			out = append(out, Sample{name, m.Value()})
		case *Histogram:
			out = append(out,
				Sample{name + "_count", float64(m.Count())},
				Sample{name + "_sum", m.sum.Value()},
				Sample{name + "_p50", m.Quantile(0.50)},
				Sample{name + "_p90", m.Quantile(0.90)},
				Sample{name + "_p99", m.Quantile(0.99)},
			)
		}
	}
	return out
}

// WriteMetrics renders the registry in the plain-text exposition format
// (Prometheus-compatible: HELP/TYPE comments, cumulative histogram buckets
// with an le label, and quantile lines for human consumption).
func (r *Registry) WriteMetrics(w io.Writer) error {
	r.mu.Lock()
	names := append([]string(nil), r.ordered...)
	byName := make(map[string]interface{}, len(r.byName))
	for k, v := range r.byName {
		byName[k] = v
	}
	r.mu.Unlock()

	for _, name := range names {
		var err error
		switch m := byName[name].(type) {
		case *Counter:
			err = writeScalar(w, name, m.help, "counter", float64(m.Value()))
		case *FloatCounter:
			err = writeScalar(w, name, m.help, "counter", m.Value())
		case *Gauge:
			err = writeScalar(w, name, m.help, "gauge", m.Value())
		case *Histogram:
			err = writeHistogram(w, m)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// escapeHelp escapes a HELP string per the plain-text exposition format:
// backslashes as \\ and newlines as \n (a literal newline would terminate
// the comment mid-string and corrupt the scrape).
func escapeHelp(help string) string {
	if !strings.ContainsAny(help, "\\\n") {
		return help
	}
	var b strings.Builder
	b.Grow(len(help) + 4)
	for _, r := range help {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

func writeScalar(w io.Writer, name, help, kind string, v float64) error {
	_, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %s\n", name, escapeHelp(help), name, kind, name, fmtValue(v))
	return err
}

func writeHistogram(w io.Writer, h *Histogram) error {
	if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", h.name, escapeHelp(h.help), h.name); err != nil {
		return err
	}
	counts := h.merged()
	var cum uint64
	for b, c := range counts {
		cum += c
		le := "+Inf"
		if b < len(h.bounds) {
			le = fmtValue(h.bounds[b])
		}
		if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", h.name, le, cum); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_sum %s\n%s_count %d\n", h.name, fmtValue(h.sum.Value()), h.name, cum); err != nil {
		return err
	}
	for _, q := range []float64{0.50, 0.90, 0.99} {
		if _, err := fmt.Fprintf(w, "%s{quantile=%q} %s\n", h.name, fmtValue(q), fmtValue(h.Quantile(q))); err != nil {
			return err
		}
	}
	return nil
}

func fmtValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}
