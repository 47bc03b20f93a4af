package serve

import (
	"bytes"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"ugache/internal/cache"
	"ugache/internal/core"
	"ugache/internal/emb"
	"ugache/internal/platform"
	"ugache/internal/telemetry"
)

// gatedSource is the tests' handle on a live worker: a RowSource whose next
// host read can be held, or made to fail. A flush gathers host-resident rows
// through ReadRow on the worker's goroutine, so a worker blocked in a held
// read is provably inside a flush and consuming nothing — requests admitted
// meanwhile stay queued until the test opens the gate. No sleeps, no clock.
type gatedSource struct {
	cache.RowSource
	armed   atomic.Bool
	failing atomic.Bool
	entered chan struct{} // one token per held read
	gate    chan struct{} // closed by open
	once    sync.Once
}

var errInjected = errors.New("injected host read failure")

func (g *gatedSource) ReadRow(key int64, dst []byte) error {
	if g.failing.Load() {
		return errInjected
	}
	if g.armed.CompareAndSwap(true, false) {
		g.entered <- struct{}{}
		<-g.gate
	}
	return g.RowSource.ReadRow(key, dst)
}

// open lets the held read go; safe to call more than once.
func (g *gatedSource) open() { g.once.Do(func() { close(g.gate) }) }

// heldServer builds a functional 200-entry system behind a gatedSource and
// starts a server on it. The gate is opened again at cleanup, so a failing
// test never leaves a worker parked under Close.
func heldServer(t *testing.T, cfg Config) (*Server, *gatedSource, *emb.Table) {
	t.Helper()
	table, err := emb.NewMaterialized("t", 200, 8, emb.Float32, 7)
	if err != nil {
		t.Fatal(err)
	}
	gate := &gatedSource{RowSource: table, entered: make(chan struct{}, 1), gate: make(chan struct{})}
	sys, err := core.Build(core.Config{
		Platform:   platform.ServerA(),
		Hotness:    testHotness(200, 1.1, 9),
		EntryBytes: table.EntryBytes(),
		CacheRatio: 0.2,
		Source:     gate,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		gate.open()
		srv.Close()
	})
	return srv, gate, table
}

// hostKey returns a key GPU 0 reads from host memory, i.e. through the
// RowSource on every gather.
func hostKey(t *testing.T, srv *Server) int64 {
	t.Helper()
	pl := srv.sys.Placement()
	for k := int64(0); k < pl.NumEntries(); k++ {
		if pl.SourceOf(0, k) == srv.sys.P.Host() {
			return k
		}
	}
	t.Fatal("no host-resident key on GPU 0")
	return 0
}

// parkWorker holds GPU 0's worker inside the flush of one single-key request
// and returns that request's result channel. Until gate.open the worker
// consumes nothing, so whatever the test admits stays queued.
func parkWorker(t *testing.T, srv *Server, gate *gatedSource) <-chan Result {
	t.Helper()
	gate.armed.Store(true)
	ch := srv.Handle(0, []int64{hostKey(t, srv)})
	<-gate.entered
	return ch
}

// checkRows fails the test unless rows holds the table's row for every key,
// in order.
func checkRows(t *testing.T, table *emb.Table, keys []int64, rows []byte) {
	t.Helper()
	eb := table.EntryBytes()
	want := make([]byte, eb)
	for j, key := range keys {
		if err := table.ReadRow(key, want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(rows[j*eb:(j+1)*eb], want) {
			t.Fatalf("key %d (position %d): wrong row", key, j)
		}
	}
}

// TestLoneRequestFlushesOnIdle: a request that finds its worker idle leaves
// alone, flushed because the queue ran empty — there is no timer to wait for.
func TestLoneRequestFlushesOnIdle(t *testing.T) {
	reg := telemetry.NewRegistry(1)
	srv, _, _ := heldServer(t, Config{Telemetry: reg})
	res, err := srv.Lookup(0, []int64{3, 4, 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.BatchKeys != 3 {
		t.Fatalf("lone request rode a batch of %d unique keys, want its own 3", res.BatchKeys)
	}
	if idle, batches := sampleValue(t, reg, "serve_batch_fill_idle_total"), sampleValue(t, reg, "serve_batches_total"); idle != 1 || batches != 1 {
		t.Fatalf("serve_batch_fill_idle_total = %g, serve_batches_total = %g, want 1 and 1", idle, batches)
	}
}

// TestBacklogCoalesces: k requests that queue up while the worker is busy
// leave as one batch of k with one dedup, and every one gets its own rows.
func TestBacklogCoalesces(t *testing.T) {
	reg := telemetry.NewRegistry(1)
	srv, gate, table := heldServer(t, Config{Telemetry: reg})
	parked := parkWorker(t, srv, gate)

	const k = 12
	chans := make([]<-chan Result, k)
	keys := make([][]int64, k)
	for i := range chans {
		keys[i] = []int64{int64(i), int64(i + 100), 50} // key 50 is shared: 2k+1 unique
		chans[i] = srv.Handle(0, keys[i])
	}
	gate.open()

	if res := <-parked; res.Err != nil || res.BatchKeys != 1 {
		t.Fatalf("parking request: %+v", res)
	}
	for i, ch := range chans {
		res := <-ch
		if res.Err != nil {
			t.Fatalf("request %d: %v", i, res.Err)
		}
		if res.BatchKeys != 2*k+1 {
			t.Fatalf("request %d rode a batch of %d unique keys, want all %d", i, res.BatchKeys, 2*k+1)
		}
		checkRows(t, table, keys[i], res.Rows)
	}
	if batches, reqs := reg.Value("serve_batches_total"), reg.Value("serve_requests_total"); batches != 2 || reqs != k+1 {
		t.Fatalf("%g batches for %g requests, want 2 (the parking flush and the backlog) for %d", batches, reqs, k+1)
	}
	if got := reg.Value("serve_batch_fill_idle_total"); got != 2 {
		t.Fatalf("serve_batch_fill_idle_total = %g, want 2", got)
	}
}

// TestBatchCutAtMaxBatchKeys: the cap cuts a backlog into batches, oldest
// first (MaxBatchKeys 2 here, three single-key requests queued behind a held
// worker).
func TestBatchCutAtMaxBatchKeys(t *testing.T) {
	reg := telemetry.NewRegistry(1)
	srv, gate, _ := heldServer(t, Config{MaxBatchKeys: 2, Telemetry: reg})
	parked := parkWorker(t, srv, gate)

	first := srv.Handle(0, []int64{10})
	second := srv.Handle(0, []int64{11})
	third := srv.Handle(0, []int64{12})
	gate.open()

	if res := <-parked; res.Err != nil {
		t.Fatal(res.Err)
	}
	// [10 11] reaches the cap and leaves full; [12] follows alone.
	for _, c := range []struct {
		name string
		ch   <-chan Result
		keys int
	}{{"first", first, 2}, {"second", second, 2}, {"third", third, 1}} {
		res := <-c.ch
		if res.Err != nil {
			t.Fatalf("%s request: %v", c.name, res.Err)
		}
		if res.BatchKeys != c.keys {
			t.Fatalf("%s request rode a batch of %d keys, want %d", c.name, res.BatchKeys, c.keys)
		}
	}
	if full, idle := sampleValue(t, reg, "serve_batch_fill_full_total"), sampleValue(t, reg, "serve_batch_fill_idle_total"); full != 1 || idle != 2 {
		t.Fatalf("fill reasons: %g full, %g idle; want 1 (the capped batch) and 2 (the parking flush, the last request)", full, idle)
	}
}

// TestBadKeyFailsOnlyItsCaller is the regression test for a malformed
// request failing its batch-mates: a good and a bad request are admitted
// while the worker is held, so they would share one batch — the bad one is
// refused with ErrBadKey before admission and the good one gets its rows.
func TestBadKeyFailsOnlyItsCaller(t *testing.T) {
	srv, gate, table := heldServer(t, Config{})
	parked := parkWorker(t, srv, gate)

	good := srv.Handle(0, []int64{1, 2})
	for _, bad := range [][]int64{{3, 200}, {-1}} {
		if res := <-srv.Handle(0, bad); !errors.Is(res.Err, ErrBadKey) {
			t.Fatalf("keys %v: err %v, want ErrBadKey", bad, res.Err)
		}
	}
	gate.open()

	if res := <-parked; res.Err != nil {
		t.Fatal(res.Err)
	}
	res := <-good
	if res.Err != nil {
		t.Fatalf("good request failed beside a bad one: %v", res.Err)
	}
	checkRows(t, table, []int64{1, 2}, res.Rows)
	if got := srv.met.failed.Value(); got != 0 {
		t.Fatalf("serve_failed_total = %d, want 0", got)
	}
}
