package cluster

import (
	"bytes"
	"errors"
	"math"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ugache/internal/cache"
	"ugache/internal/core"
	"ugache/internal/emb"
	"ugache/internal/flight"
	"ugache/internal/platform"
	"ugache/internal/rng"
	"ugache/internal/serve"
	"ugache/internal/telemetry"
	"ugache/internal/workload"
)

// heldSource is a node's RowSource with a one-shot hold: once armed, the
// node's next host read blocks until open, and says so on held. A serve
// worker blocked there is inside a flush, so the leg it carries cannot
// answer before the test says so — a slow peer without a clock.
type heldSource struct {
	cache.RowSource
	armed atomic.Bool
	held  chan struct{} // a token per hold taken, if the last was received
	gate  chan struct{}
	once  sync.Once
}

func (h *heldSource) ReadRow(key int64, dst []byte) error {
	if h.armed.CompareAndSwap(true, false) {
		select {
		case h.held <- struct{}{}:
		default:
		}
		<-h.gate
	}
	return h.RowSource.ReadRow(key, dst)
}

func (h *heldSource) open() { h.once.Do(func() { close(h.gate) }) }

// buildFront assembles an in-process N-node cluster: each node solves the
// same clustered platform with its own ring-shard Owned predicate, serves
// it behind a serve.Server, and the Front routes across them; the front and
// every server record into one registry (cfg.Telemetry, or a new one).
// Returns the front, the shared backing table, and each node's holdable
// view of it.
func buildFront(t *testing.T, nodes, entries int, cfg FrontConfig) (*Front, *emb.Table, []*heldSource) {
	t.Helper()
	table, err := emb.NewMaterialized("t", int64(entries), 8, emb.Float32, 7)
	if err != nil {
		t.Fatal(err)
	}
	// The Owned predicates need the ring before the Front exists; rings are
	// deterministic in (n, vnodes, seed), so building a twin is exact.
	ring := newRing(t, nodes, defaultVnodes, cfg.Seed)
	pair := [][]float64{{0, 50e9}, {50e9, 0}}
	net := platform.DefaultNetwork(nodes)
	r := rng.New(11)
	perm := r.Perm(entries)
	h := make(workload.Hotness, entries)
	for rank := 0; rank < entries; rank++ {
		h[perm[rank]] = math.Pow(float64(rank+1), -1.1)
	}
	if cfg.Telemetry == nil {
		cfg.Telemetry = telemetry.NewRegistry(nodes)
	}
	ns := make([]*Node, nodes)
	holds := make([]*heldSource, nodes)
	for i := 0; i < nodes; i++ {
		holds[i] = &heldSource{RowSource: table, held: make(chan struct{}, 1), gate: make(chan struct{})}
		p, err := platform.New(platform.Config{
			Name: "2xV100", Kind: platform.HardWired, GPU: platform.V100x16, N: 2,
			PCIeBW: 12e9, DRAMBW: 140e9, PairBW: pair, Network: &net,
		})
		if err != nil {
			t.Fatal(err)
		}
		self := i
		sys, err := core.Build(core.Config{
			Platform:   p,
			Hotness:    h,
			EntryBytes: table.EntryBytes(),
			CacheRatio: 0.1,
			Source:     holds[i],
			Owned:      func(k int64) bool { return ring.Owner(k) == self },
		})
		if err != nil {
			t.Fatal(err)
		}
		srv, err := serve.New(sys, serve.Config{Telemetry: cfg.Telemetry})
		if err != nil {
			t.Fatal(err)
		}
		ns[i] = &Node{Sys: sys, Srv: srv}
	}
	f, err := NewFront(ns, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		for _, h := range holds {
			h.open()
		}
		f.Close()
		for _, n := range ns {
			n.Srv.Close()
		}
	})
	return f, table, holds
}

// TestFrontFunctionalRoundTrip: rows routed across the cluster are byte-
// identical to the backing table, and cross-node traffic actually happened.
func TestFrontFunctionalRoundTrip(t *testing.T) {
	const entries = 3000
	f, table, _ := buildFront(t, 2, entries, FrontConfig{Seed: 1})
	eb := table.EntryBytes()
	z, _ := workload.NewZipf(entries, 1.05)
	r := rng.New(3)
	want := make([]byte, eb)
	for iter := 0; iter < 20; iter++ {
		keys := make([]int64, 64)
		for j := range keys {
			keys[j] = z.Sample(r)
		}
		node := iter % 2
		res := f.Lookup(node, iter%2, keys)
		if res.Err != nil {
			t.Fatalf("iter %d: %v", iter, res.Err)
		}
		if res.Missing != 0 {
			t.Fatalf("iter %d: %d missing without a deadline squeeze", iter, res.Missing)
		}
		if res.SimSeconds <= 0 {
			t.Fatalf("iter %d: sim %g", iter, res.SimSeconds)
		}
		if res.LocalKeys+res.RemoteKeys != len(keys) {
			t.Fatalf("iter %d: split %d+%d != %d", iter, res.LocalKeys, res.RemoteKeys, len(keys))
		}
		for j, k := range keys {
			if err := table.ReadRow(k, want); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(res.Rows[j*eb:(j+1)*eb], want) {
				t.Fatalf("iter %d key %d: row mismatch", iter, k)
			}
		}
	}
	if f.met.remoteKeys.Value() == 0 {
		t.Fatal("no cross-node keys: routing test is vacuous")
	}
	if f.met.crossBytes.Value() == 0 || f.met.dispatches.Value() == 0 {
		t.Fatal("cross-node byte/dispatch counters did not move")
	}
}

// remoteKeys returns n keys that node 0 reads, on GPU 0, from node 1's host
// shard: a lookup of them is one cross-node leg and nothing else.
func remoteKeys(t *testing.T, f *Front, n int) []int64 {
	t.Helper()
	pl := f.nodes[0].Sys.Placement()
	var keys []int64
	for k := int64(0); k < pl.NumEntries() && len(keys) < n; k++ {
		if int(pl.SourceOf(0, k)) == f.netSrc && f.ring.Owner(k) == 1 {
			keys = append(keys, k)
		}
	}
	if len(keys) < n {
		t.Fatalf("%d keys of node 1's shard read over the network, want %d", len(keys), n)
	}
	return keys
}

// TestLegsCoalesceInTheOwnersWorker: the router sends each cross-node leg as
// its own request, and the owner's serve worker is where legs queued behind
// a flush ride one batch together. Both of node 1's workers are held inside
// the flush of one leg each while the other legs queue, so the K legs are
// answered in four flushes, each caller with its own rows.
func TestLegsCoalesceInTheOwnersWorker(t *testing.T) {
	const entries, k, perLeg = 3000, 8, 2
	f, table, holds := buildFront(t, 2, entries, FrontConfig{Seed: 1, Deadline: time.Minute})
	keys := remoteKeys(t, f, k*perLeg)
	results := make([]Result, k)
	var wg sync.WaitGroup
	lookup := func(i int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i] = f.Lookup(0, 0, keys[i*perLeg:(i+1)*perLeg])
		}()
	}
	// The round-robin pick sends the first leg to node 1's GPU 0 and the
	// second to its GPU 1: hold each worker in turn.
	for i := 0; i < 2; i++ {
		holds[1].armed.Store(true)
		lookup(i)
		<-holds[1].held
	}
	for i := 2; i < k; i++ {
		lookup(i)
	}
	// A leg is counted once node 1's admission has taken it; none is shed
	// (the queues hold 256), so all k are queued or held when this reads k.
	for f.met.dispatches.Value() < k {
		runtime.Gosched()
	}
	holds[1].open()
	wg.Wait()

	eb := table.EntryBytes()
	want := make([]byte, eb)
	for i, res := range results {
		if res.Err != nil || res.Missing != 0 || res.RemoteKeys != perLeg {
			t.Fatalf("lookup %d: err %v, %d missing, %d remote keys", i, res.Err, res.Missing, res.RemoteKeys)
		}
		for j, key := range keys[i*perLeg : (i+1)*perLeg] {
			if err := table.ReadRow(key, want); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(res.Rows[j*eb:(j+1)*eb], want) {
				t.Fatalf("lookup %d key %d: row mismatch", i, key)
			}
		}
	}
	if got := f.met.dispatches.Value(); got != k {
		t.Fatalf("cluster_dispatches_total = %d, want one per leg: %d", got, k)
	}
	if got, want := f.met.dispatchKeys.Value(), int64(k*perLeg); got != want {
		t.Fatalf("cluster_dispatch_keys_total = %d, want %d", got, want)
	}
	// Each Result was sent after its batch's record was written.
	recs := f.nodes[1].Srv.Trace().Snapshot(nil)
	requests := 0
	for _, b := range recs {
		requests += b.Requests
	}
	if requests != k || len(recs) >= k {
		t.Fatalf("node 1's batch records answer %d requests in %d flushes, want the %d legs in fewer", requests, len(recs), k)
	}
}

// TestLookupRefusesBadInput: a node or GPU index out of range, or a key
// outside the table, fails the lookup with the serve layer's errors — a key
// with serve.ErrBadKey — before any counter moves or any leg leaves.
func TestLookupRefusesBadInput(t *testing.T) {
	const entries = 2000
	f, _, _ := buildFront(t, 2, entries, FrontConfig{Seed: 1})
	for _, c := range []struct {
		name      string
		node, gpu int
		keys      []int64
		want      string
	}{
		{"gpu -1", 0, -1, []int64{1}, "bad gpu -1"},
		{"gpu 99", 1, 99, []int64{1}, "bad gpu 99"},
		{"node 2", 2, 0, []int64{1}, "bad node 2"},
		{"key -1", 0, 0, []int64{1, -1}, "-1 not in [0, 2000)"},
		{"key = NumEntries", 1, 1, []int64{3, entries}, "2000 not in [0, 2000)"},
	} {
		t.Run(c.name, func(t *testing.T) {
			res := f.Lookup(c.node, c.gpu, c.keys)
			if res.Err == nil || !strings.Contains(res.Err.Error(), c.want) {
				t.Fatalf("err %v, want one saying %q", res.Err, c.want)
			}
			if isKey := strings.HasPrefix(c.name, "key"); errors.Is(res.Err, serve.ErrBadKey) != isKey {
				t.Fatalf("err %v: wraps serve.ErrBadKey = %v, want %v", res.Err, !isKey, isKey)
			}
		})
	}
	m := f.met
	for _, c := range []*telemetry.Counter{m.lookups, m.localKeys, m.remoteKeys, m.dispatches, m.partials} {
		if c.Value() != 0 {
			t.Fatalf("a refused lookup moved a counter to %d", c.Value())
		}
	}
}

// TestFrontPartialDeadline: a peer that does not answer before the deadline
// fails the remote leg partial — local rows still arrive, missing keys are
// counted, and the front keeps serving afterwards.
func TestFrontPartialDeadline(t *testing.T) {
	const entries = 3000
	f, table, holds := buildFront(t, 2, entries, FrontConfig{
		Seed: 1, Deadline: time.Nanosecond,
	})
	holds[1].armed.Store(true) // node 1 answers nothing until opened
	eb := table.EntryBytes()
	z, _ := workload.NewZipf(entries, 1.05)
	r := rng.New(5)
	var keys []int64
	for len(keys) < 256 {
		keys = append(keys, z.Sample(r))
	}
	res := f.Lookup(0, 0, keys)
	if res.RemoteKeys == 0 {
		t.Skip("workload produced no remote keys")
	}
	if res.Err != ErrPartial {
		t.Fatalf("err %v, want ErrPartial", res.Err)
	}
	if res.Missing == 0 || res.Missing > res.RemoteKeys {
		t.Fatalf("missing %d of %d remote keys", res.Missing, res.RemoteKeys)
	}
	if f.met.partials.Value() == 0 || f.met.missingKeys.Value() == 0 {
		t.Fatal("partial-failure counters did not move")
	}
	// Local rows must still be present and correct.
	want := make([]byte, eb)
	checked := 0
	for j, k := range keys {
		if int(f.nodes[0].Sys.Placement().SourceOf(0, k)) == f.netSrc && f.ring.Owner(k) != 0 {
			continue // a remote key; may be missing
		}
		if err := table.ReadRow(k, want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(res.Rows[j*eb:(j+1)*eb], want) {
			t.Fatalf("local key %d: row mismatch in partial result", k)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no local keys to check")
	}
	// The expired leg must not wedge the front.
	holds[1].open()
	res2 := f.Lookup(1, 0, keys[:32])
	if res2.Err != nil && res2.Err != ErrPartial {
		t.Fatalf("follow-up lookup: %v", res2.Err)
	}
}

// TestFrontClose: Close stops routing — every later lookup gets errClosed —
// and is idempotent, while a leg its owner had already admitted is still
// answered: the lookup waiting on it returns its rows once the owner is
// released.
func TestFrontClose(t *testing.T) {
	const entries = 2000
	f, table, holds := buildFront(t, 2, entries, FrontConfig{Seed: 1, Deadline: time.Minute})
	keys := remoteKeys(t, f, 4)
	holds[1].armed.Store(true)
	inFlight := make(chan Result, 1)
	go func() { inFlight <- f.Lookup(0, 0, keys) }()
	<-holds[1].held
	f.Close()
	f.Close()
	later := zipfKeys(t, rng.New(9), entries, 256)
	for node := range f.nodes {
		if res := f.Lookup(node, 0, later); res.Err != errClosed {
			t.Fatalf("lookup at node %d after Close: %v, want errClosed", node, res.Err)
		}
	}
	holds[1].open()
	res := <-inFlight
	if res.Err != nil || res.Missing != 0 {
		t.Fatalf("the lookup in flight at Close: err %v, %d missing", res.Err, res.Missing)
	}
	eb := table.EntryBytes()
	want := make([]byte, eb)
	for j, k := range keys {
		if err := table.ReadRow(k, want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(res.Rows[j*eb:(j+1)*eb], want) {
			t.Fatalf("key %d: row mismatch in the lookup in flight at Close", k)
		}
	}
	if got := f.met.lookups.Value(); got != 1 {
		t.Fatalf("cluster_lookups_total = %d, want the one routed before Close", got)
	}
}

// zipfKeys draws n Zipf(1.05) keys over [0, entries).
func zipfKeys(t *testing.T, r *rng.Rand, entries, n int) []int64 {
	t.Helper()
	z, err := workload.NewZipf(int64(entries), 1.05)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]int64, n)
	for i := range keys {
		keys[i] = z.Sample(r)
	}
	return keys
}

// TestRouterLeavesControlRingToSlowPath is the regression test for the
// router lapping the flight recorder's control ring: it used to write one
// queue event per dispatch — per lookup — so a ring as deep as this one lost
// its refresh event to the first eight routed lookups, and the shipped
// 4096-deep ring kept a fifth of a second of history. Routed lookups now
// leave the ring alone, and a partial lookup writes exactly one event.
func TestRouterLeavesControlRingToSlowPath(t *testing.T) {
	const entries = 3000
	fl := flight.NewRecorder(1, 8)
	refresh := flight.Event{Kind: flight.KindRefresh, GPU: -1, Seq: 2, UnixNanos: 1}
	fl.RecordControl(&refresh)
	f, _, holds := buildFront(t, 2, entries, FrontConfig{Seed: 1, Flight: fl, Deadline: time.Minute})
	r := rng.New(3)
	for i := 0; i < 100; i++ {
		if res := f.Lookup(i%2, i%2, zipfKeys(t, r, entries, 64)); res.Err != nil {
			t.Fatalf("lookup %d: %v", i, res.Err)
		}
	}
	if f.met.dispatches.Value() < 8 {
		t.Fatalf("%d dispatches in 100 lookups: too few to have lapped the ring", f.met.dispatches.Value())
	}
	if evs := fl.Events(); len(evs) != 1 || evs[0].Kind != flight.KindRefresh {
		t.Fatalf("control ring after 100 routed lookups: %+v, want the one refresh event", evs)
	}

	// A held peer and no patience: the lookup's remote leg goes missing. No
	// lookup is in flight, so the deadline can be changed under the front.
	f.cfg.Deadline = time.Nanosecond
	holds[1].armed.Store(true)
	res := f.Lookup(0, 0, zipfKeys(t, r, entries, 256))
	if res.Err != ErrPartial {
		t.Fatalf("held peer: err %v, want ErrPartial", res.Err)
	}
	evs := fl.Events()
	if len(evs) != 2 || evs[0].Kind != flight.KindRefresh {
		t.Fatalf("control ring after one partial lookup: %+v, want the refresh and one partial event", evs)
	}
	got := evs[1]
	if got.Kind != flight.KindPartial || got.GPU != 0 ||
		got.V[flight.PartialMissingKeys] != float64(res.Missing) || got.V[flight.PartialRemoteKeys] != float64(res.RemoteKeys) {
		t.Fatalf("partial event %+v for a result missing %d of %d remote keys at node 0", got, res.Missing, res.RemoteKeys)
	}
}

// TestClusterCounterConservation holds the cluster_* counter family to its
// identities across healthy lookups and lookups cut short by a held peer:
// every key sent is counted local or remote, every Result accounts for every
// key it was asked (rows returned + Missing), and the nodes' servers answered
// exactly the local legs plus the cross-node legs (cluster_dispatches_total)
// — a leg whose lookup gave up on it is still a request its owner serves.
func TestClusterCounterConservation(t *testing.T) {
	const entries = 3000
	f, table, holds := buildFront(t, 2, entries, FrontConfig{Seed: 1, Deadline: time.Minute})
	eb := table.EntryBytes()
	r := rng.New(5)
	want := make([]byte, eb)
	var sent, localLegs, partials int64
	lookup := func(node, gpu, n int) {
		keys := zipfKeys(t, r, entries, n)
		res := f.Lookup(node, gpu, keys)
		if res.Err != nil && res.Err != ErrPartial {
			t.Fatal(res.Err)
		}
		sent += int64(len(keys))
		if res.LocalKeys > 0 {
			localLegs++
		}
		if res.Missing > 0 {
			partials++
		}
		if res.LocalKeys+res.RemoteKeys != len(keys) {
			t.Fatalf("result splits %d + %d keys of %d asked", res.LocalKeys, res.RemoteKeys, len(keys))
		}
		returned := 0
		for j, k := range keys {
			if err := table.ReadRow(k, want); err != nil {
				t.Fatal(err)
			}
			if res.Rows != nil && bytes.Equal(res.Rows[j*eb:(j+1)*eb], want) {
				returned++
			}
		}
		if returned+res.Missing != len(keys) {
			t.Fatalf("result returned %d rows and counts %d missing of %d keys asked", returned, res.Missing, len(keys))
		}
	}
	for i := 0; i < 20; i++ {
		lookup(i%2, i%2, 64)
	}
	if partials != 0 {
		t.Fatalf("%d partial lookups with both peers healthy", partials)
	}
	// No lookup is in flight, so the deadline can be changed under the front.
	f.cfg.Deadline = time.Nanosecond
	holds[1].armed.Store(true)
	for i := 0; i < 10; i++ {
		lookup(0, i%2, 256)
	}
	if partials == 0 {
		t.Fatal("no partial lookup under a held peer: the test is vacuous")
	}

	// Let the held leg through and wait for every flush, so that the
	// servers' counters are final.
	holds[1].open()
	f.Close()
	for _, n := range f.nodes {
		n.Srv.Close()
	}
	served := int64(f.cfg.Telemetry.Value("serve_requests_total"))
	m := f.met
	if got := m.localKeys.Value() + m.remoteKeys.Value(); got != sent {
		t.Fatalf("cluster_local_keys_total + cluster_remote_keys_total = %d, %d keys sent", got, sent)
	}
	if got := m.lookups.Value(); got != 30 {
		t.Fatalf("cluster_lookups_total = %d, want 30", got)
	}
	if got := m.partials.Value(); got != partials {
		t.Fatalf("cluster_partial_lookups_total = %d, %d results were partial", got, partials)
	}
	if want := localLegs + m.dispatches.Value(); served != want {
		t.Fatalf("the nodes' serve_requests_total sum to %d, want %d local legs + %d dispatches",
			served, localLegs, m.dispatches.Value())
	}
}
