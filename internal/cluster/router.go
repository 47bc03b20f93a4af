// The cluster front end: a consistent-hash request router over N
// single-machine serving nodes. A lookup arrives at one node, splits into a
// local sub-lookup (keys the arrival node can serve from its own tiers) and
// per-peer sub-lookups (network-class keys owned by another machine's host
// shard), coalesces the cross-node legs queued for one destination so under
// load many requests ride one wire dispatch, and reassembles the scattered
// results under a per-node deadline — a missing leg fails partial instead of
// stalling the whole lookup (DESIGN.md §6.7).
package cluster

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ugache/internal/core"
	"ugache/internal/flight"
	"ugache/internal/serve"
	"ugache/internal/telemetry"
)

// ErrPartial marks a lookup whose cross-node legs did not all return before
// the per-node deadline: the result carries every row that did arrive and
// counts the rest in Missing. Partial results are a first-class serving
// state under node slowness, not a fault — callers retry the missing keys
// or degrade.
var ErrPartial = errors.New("cluster: partial result, sub-lookup deadline expired")

// ErrClosed is returned by lookups that reach a closed front end.
var ErrClosed = errors.New("cluster: front closed")

// Node couples one machine's engine and serving front: the System solved on
// the clustered platform (network tier enabled, Owned predicate set to this
// node's ring shard) and the Server coalescing its local batches.
type Node struct {
	Sys *core.System
	Srv *serve.Server
}

// FrontConfig tunes the router.
type FrontConfig struct {
	// Seed keys the hash ring (both vnode points and key hashes); every
	// node of a deployment must use the same seed.
	Seed uint64
	// Deadline bounds how long a lookup waits for its cross-node legs
	// (default 50ms). An expired leg fails partial (ErrPartial) rather than
	// stalling the caller behind a slow peer.
	Deadline time.Duration
	// Telemetry receives the router's metrics (cross-node key/byte totals,
	// dispatch counts, queue depths, partial-failure counters). Nil creates
	// a private registry.
	Telemetry *telemetry.Registry
	// Flight, when non-nil, receives one control-ring event per partial
	// lookup (Kind=partial, GPU=origin node: keys missing, remote keys
	// asked) — the router's one slow-path fact, kept where a watchdog bundle
	// finds it next to the refresh and drift events — and one dispatch
	// record per cross-node dispatch (Kind=dispatch: destination, keys,
	// requests, wall seconds). Dispatches are per-lookup traffic, so they go
	// to a dispatch ring per origin node that NewFront claims, never to the
	// control ring; the timeline's router track is drawn from those rings
	// (flight.Recorder.DrawRouter).
	Flight *flight.Recorder
}

// maxSubKeys caps one cross-node dispatch: a dispatcher stops taking queued
// sub-lookups once this many keys are in hand for its destination. Half a
// paper-sized serve batch (serve.Config.MaxBatchKeys defaults to 8192), so
// a full dispatch still shares the destination's flush with that node's own
// traffic. A dispatch never waits to reach the cap — it leaves as soon as the
// dispatcher's queue is empty.
const maxSubKeys = 4096

// Result is what one cluster lookup gets back.
type Result struct {
	// Rows holds len(keys) rows in functional mode (row i belongs to keys[i]);
	// rows of keys lost to an expired leg stay zero. Nil in timing-only mode.
	Rows []byte
	// SimSeconds is the modelled critical path: the local leg's simulated
	// extraction time or the slowest remote leg (its batch extraction plus
	// one wire round trip), whichever is longer.
	SimSeconds float64
	// LocalKeys and RemoteKeys split the lookup's keys by serving side.
	LocalKeys, RemoteKeys int
	// Missing counts keys whose leg missed the deadline or failed.
	Missing int
	// Err is ErrPartial when Missing > 0, or the first hard error.
	Err error
}

// metrics is the router's telemetry bundle, sharded by origin node.
type routerMetrics struct {
	lookups        *telemetry.Counter
	localKeys      *telemetry.Counter
	remoteKeys     *telemetry.Counter
	crossBytes     *telemetry.Counter
	dispatches     *telemetry.Counter
	dispatchKeys   *telemetry.Counter
	partials       *telemetry.Counter
	missingKeys    *telemetry.Counter
	queueDepth     *telemetry.Gauge
	queueDepthPeak *telemetry.Gauge
}

func newRouterMetrics(reg *telemetry.Registry) *routerMetrics {
	return &routerMetrics{
		lookups:        reg.Counter("cluster_lookups_total", "cluster lookups routed"),
		localKeys:      reg.Counter("cluster_local_keys_total", "keys served on their arrival node"),
		remoteKeys:     reg.Counter("cluster_remote_keys_total", "keys routed to a peer node's host shard"),
		crossBytes:     reg.Counter("cluster_cross_node_bytes_total", "embedding bytes moved between nodes"),
		dispatches:     reg.Counter("cluster_dispatches_total", "coalesced cross-node dispatches sent"),
		dispatchKeys:   reg.Counter("cluster_dispatch_keys_total", "keys carried by cross-node dispatches"),
		partials:       reg.Counter("cluster_partial_lookups_total", "lookups that returned partial on an expired leg"),
		missingKeys:    reg.Counter("cluster_missing_keys_total", "keys lost to expired or failed legs"),
		queueDepth:     reg.Gauge("cluster_router_queue_depth_last", "pending keys observed at the last dispatch formation"),
		queueDepthPeak: reg.Gauge("cluster_router_queue_depth_peak", "peak pending keys observed at any dispatch formation"),
	}
}

// subCall is one origin lookup's share of a coalesced cross-node dispatch.
type subCall struct {
	keys []int64
	idx  []int // positions of keys in the caller's key slice
	done chan subResult
}

type subResult struct {
	rows []byte // this sub's rows, aligned with subCall.keys; nil timing-only
	sim  float64
	err  error
}

// dispatcher coalesces one origin node's sub-lookups toward one destination
// node: whatever is queued when it comes round — up to maxSubKeys — leaves as
// a single Handle on the destination's server, so under load the wire round
// trip and the destination's batch formation are paid once per dispatch, not
// once per request, and a sub-lookup that finds the dispatcher idle leaves at
// once.
type dispatcher struct {
	f            *Front
	origin, dest int
	calls        chan *subCall
	rr           atomic.Int64      // round-robin GPU pick on the destination
	ring         *flight.EventRing // the origin's dispatch ring; nil without Flight
}

// run is the dispatcher's loop: block for the first sub-call, take the rest
// of the backlog without blocking, send. It returns once Close has closed
// calls and everything queued before that has been sent.
func (d *dispatcher) run() {
	defer d.f.wg.Done()
	for first := range d.calls {
		batch := []*subCall{first}
		keys := len(first.keys)
	fill:
		for keys < maxSubKeys {
			select {
			case c, ok := <-d.calls:
				if !ok {
					break fill
				}
				batch = append(batch, c)
				keys += len(c.keys)
			default:
				break fill
			}
		}
		d.f.observeDispatch(d.origin, keys)
		d.f.wg.Add(1)
		go d.send(batch, keys)
	}
}

// send performs one coalesced dispatch and scatters the destination's reply
// back to the coalesced callers.
func (d *dispatcher) send(batch []*subCall, keys int) {
	defer d.f.wg.Done()
	all := make([]int64, 0, keys)
	for _, c := range batch {
		all = append(all, c.keys...)
	}
	dst := d.f.nodes[d.dest]
	g := int(d.rr.Add(1)-1) % dst.Sys.P.N
	start := time.Now()
	res := <-dst.Srv.Handle(g, all)
	if d.ring != nil {
		done := time.Now()
		e := flight.Event{Kind: flight.KindDispatch, GPU: int32(d.origin), UnixNanos: done.UnixNano()}
		e.V[flight.DispatchDest] = float64(d.dest)
		e.V[flight.DispatchKeys] = float64(keys)
		e.V[flight.DispatchRequests] = float64(len(batch))
		e.V[flight.DispatchWallSeconds] = done.Sub(start).Seconds()
		d.ring.Record(&e)
	}
	sim := res.SimSeconds + d.f.rtt
	eb := d.f.entryBytes
	d.f.met.crossBytes.Add(d.origin, int64(keys)*int64(eb))
	off := 0
	for _, c := range batch {
		sub := subResult{sim: sim, err: res.Err}
		if res.Err == nil && res.Rows != nil {
			sub.rows = res.Rows[off*eb : (off+len(c.keys))*eb]
		}
		off += len(c.keys)
		c.done <- sub
	}
}

// Front is the sharded serving front end: the hash ring plus one dispatcher
// per (origin, destination) node pair.
type Front struct {
	cfg        FrontConfig
	ring       *Ring
	nodes      []*Node
	out        [][]*dispatcher // out[origin][dest], nil on the diagonal
	met        *routerMetrics
	fl         *flight.Recorder
	entryBytes int
	rtt        float64 // one modelled wire round trip, seconds
	netSrc     int     // the platform's network SourceID as int

	// closeMu fences Lookup's dispatcher sends against Close: sends happen
	// under the read lock after checking closed, Close closes the channels
	// under the write lock, so a send can never race a close.
	closeMu sync.RWMutex
	closed  bool
	wg      sync.WaitGroup
	peak    atomic.Int64
}

// NewFront builds the router over the given nodes. Every node must serve
// the same clustered platform shape (same Machines count as len(nodes)).
// The front owns its dispatchers but not the nodes: Close stops routing,
// the caller closes each node's Server.
func NewFront(nodes []*Node, cfg FrontConfig) (*Front, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("cluster: no nodes")
	}
	for i, n := range nodes {
		if n == nil || n.Sys == nil || n.Srv == nil {
			return nil, fmt.Errorf("cluster: node %d incomplete", i)
		}
		if !n.Sys.P.HasNetwork() {
			return nil, fmt.Errorf("cluster: node %d platform has no network tier", i)
		}
		if m := n.Sys.P.Machines(); m != len(nodes) {
			return nil, fmt.Errorf("cluster: node %d platform models %d machines, front has %d", i, m, len(nodes))
		}
	}
	if cfg.Deadline <= 0 {
		cfg.Deadline = 50 * time.Millisecond
	}
	ring, err := NewRing(len(nodes), DefaultVnodes, cfg.Seed)
	if err != nil {
		return nil, err
	}
	reg := cfg.Telemetry
	if reg == nil {
		reg = telemetry.NewRegistry(len(nodes))
	}
	p := nodes[0].Sys.P
	f := &Front{
		cfg:        cfg,
		ring:       ring,
		nodes:      nodes,
		met:        newRouterMetrics(reg),
		fl:         cfg.Flight,
		entryBytes: nodes[0].Sys.Cache.EntryBytes,
		rtt:        2 * p.Net.LatencySec,
		netSrc:     int(p.Network()),
	}
	f.out = make([][]*dispatcher, len(nodes))
	for o := range nodes {
		var ring *flight.EventRing
		if f.fl != nil {
			ring = f.fl.ClaimDispatch()
		}
		f.out[o] = make([]*dispatcher, len(nodes))
		for dst := range nodes {
			if dst == o {
				continue
			}
			d := &dispatcher{f: f, origin: o, dest: dst, ring: ring,
				calls: make(chan *subCall, 4*len(nodes))}
			f.out[o][dst] = d
			f.wg.Add(1)
			go d.run()
		}
	}
	return f, nil
}

// Ring exposes the front's hash ring (shard-ownership queries, Owned
// predicates for the nodes' engines).
func (f *Front) Ring() *Ring { return f.ring }

// observeDispatch records one dispatch formation in telemetry.
func (f *Front) observeDispatch(origin, keys int) {
	f.met.dispatches.Add(origin, 1)
	f.met.dispatchKeys.Add(origin, int64(keys))
	f.met.queueDepth.Set(float64(keys))
	for {
		old := f.peak.Load()
		if int64(keys) <= old {
			break
		}
		if f.peak.CompareAndSwap(old, int64(keys)) {
			f.met.queueDepthPeak.Set(float64(keys))
			break
		}
	}
}

// Lookup routes one request that arrived at node for GPU gpu: keys the
// arrival node can serve from its own tiers (anything the placement does not
// classify as network, plus network-class keys this node's host shard owns)
// go to the local server; the rest scatter to their ring owners through the
// coalescing dispatchers and gather back under the deadline. A bad node or
// GPU index, or a key outside the table (serve.ErrBadKey), fails the lookup
// before any counter moves or any leg is sent.
func (f *Front) Lookup(node, gpu int, keys []int64) Result {
	if node < 0 || node >= len(f.nodes) {
		return Result{Err: fmt.Errorf("cluster: bad node %d", node)}
	}
	n := f.nodes[node]
	if gpu < 0 || gpu >= n.Sys.P.N {
		return Result{Err: fmt.Errorf("cluster: bad gpu %d", gpu)}
	}
	pl := n.Sys.Placement()
	entries := pl.NumEntries()
	// Split by serving side, preserving each key's caller position for the
	// gather.
	var localKeys []int64
	var localIdx []int
	var remote map[int]*subCall
	for i, k := range keys {
		if k < 0 || k >= entries {
			return Result{Err: fmt.Errorf("%w: %d not in [0, %d)", serve.ErrBadKey, k, entries)}
		}
		local := int(pl.SourceOf(gpu, k)) != f.netSrc
		owner := node
		if !local {
			owner = f.ring.Owner(k)
			local = owner == node
		}
		if local {
			localKeys = append(localKeys, k)
			localIdx = append(localIdx, i)
			continue
		}
		if remote == nil {
			remote = make(map[int]*subCall, len(f.nodes)-1)
		}
		c := remote[owner]
		if c == nil {
			c = &subCall{done: make(chan subResult, 1)}
			remote[owner] = c
		}
		c.keys = append(c.keys, k)
		c.idx = append(c.idx, i)
	}
	f.met.lookups.Add(node, 1)
	f.met.localKeys.Add(node, int64(len(localKeys)))
	f.met.remoteKeys.Add(node, int64(len(keys)-len(localKeys)))

	// Scatter: remote legs first (they ride the coalescers), then the local
	// leg on this node's own server. The read lock fences the channel sends
	// against Close.
	if remote != nil {
		f.closeMu.RLock()
		if f.closed {
			f.closeMu.RUnlock()
			return Result{Err: ErrClosed}
		}
		for owner, c := range remote {
			f.out[node][owner].calls <- c
		}
		f.closeMu.RUnlock()
	}
	var localCh <-chan serve.Result
	if len(localKeys) > 0 {
		localCh = n.Srv.Handle(gpu, localKeys)
	}

	out := Result{LocalKeys: len(localKeys), RemoteKeys: len(keys) - len(localKeys)}
	eb := f.entryBytes
	var rows []byte
	scatterRows := func(sub []byte, idx []int) {
		if sub == nil {
			return
		}
		if rows == nil {
			rows = make([]byte, len(keys)*eb)
		}
		for j, i := range idx {
			copy(rows[i*eb:(i+1)*eb], sub[j*eb:(j+1)*eb])
		}
	}

	// Gather under the per-node deadline: the local leg is waited on
	// unconditionally (its server's own admission bounds it); each remote
	// leg that has not answered when the deadline fires is counted missing,
	// never awaited.
	if localCh != nil {
		res := <-localCh
		if res.Err != nil {
			out.Missing += len(localKeys)
			if out.Err == nil {
				out.Err = res.Err
			}
		} else {
			if res.SimSeconds > out.SimSeconds {
				out.SimSeconds = res.SimSeconds
			}
			scatterRows(res.Rows, localIdx)
		}
	}
	if remote != nil {
		deadline := time.NewTimer(f.cfg.Deadline)
		defer deadline.Stop()
		expired := false
		for _, c := range remote {
			if expired {
				select {
				case sub := <-c.done:
					f.gatherLeg(&out, sub, c, scatterRows)
				default:
					out.Missing += len(c.keys)
				}
				continue
			}
			select {
			case sub := <-c.done:
				f.gatherLeg(&out, sub, c, scatterRows)
			case <-deadline.C:
				expired = true
				out.Missing += len(c.keys)
			}
		}
	}
	if out.Missing > 0 {
		f.met.partials.Add(node, 1)
		f.met.missingKeys.Add(node, int64(out.Missing))
		if out.Err == nil {
			out.Err = ErrPartial
		}
		if f.fl != nil {
			e := flight.Event{Kind: flight.KindPartial, GPU: int32(node), UnixNanos: time.Now().UnixNano()}
			e.V[flight.PartialMissingKeys] = float64(out.Missing)
			e.V[flight.PartialRemoteKeys] = float64(out.RemoteKeys)
			f.fl.RecordControl(&e)
		}
	}
	out.Rows = rows
	return out
}

func (f *Front) gatherLeg(out *Result, sub subResult, c *subCall, scatter func([]byte, []int)) {
	if sub.err != nil {
		out.Missing += len(c.keys)
		if out.Err == nil {
			out.Err = sub.err
		}
		return
	}
	if sub.sim > out.SimSeconds {
		out.SimSeconds = sub.sim
	}
	scatter(sub.rows, c.idx)
}

// Close stops the dispatchers after flushing their queues. In-flight
// lookups complete; new ones get ErrClosed. The nodes' servers stay up —
// the caller owns them.
func (f *Front) Close() {
	f.closeMu.Lock()
	if f.closed {
		f.closeMu.Unlock()
		return
	}
	f.closed = true
	f.closeMu.Unlock()
	for _, row := range f.out {
		for _, d := range row {
			if d != nil {
				close(d.calls)
			}
		}
	}
	f.wg.Wait()
}
