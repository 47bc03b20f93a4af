// The cluster front end: a consistent-hash request router over N
// single-machine serving nodes. A lookup arrives at one node, splits into a
// local leg (keys the arrival node can serve from its own tiers) and
// one leg per peer (network-class keys owned by another machine's host
// shard), each sent straight to its owner's server, whose worker coalesces
// it with whatever else that GPU has queued, and reassembles the scattered
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

// errClosed is returned by lookups that reach a closed front end.
var errClosed = errors.New("cluster: front closed")

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
	// leg counts, partial-failure counters). Nil creates a private registry.
	Telemetry *telemetry.Registry
	// Flight, when non-nil, receives one control-ring event per partial
	// lookup (Kind=partial, GPU=origin node: keys missing, remote keys
	// asked) — the router's one slow-path fact, kept where a diagnostic
	// bundle finds it next to the refresh and drift events. A leg needs no record
	// of its own: it is a request in its owner's batch records.
	Flight *flight.Recorder
}

// Result is what one cluster lookup gets back.
type Result struct {
	// Rows holds len(keys) rows in functional mode (row i belongs to keys[i]);
	// rows of keys lost to an expired leg stay zero. Nil in timing-only mode.
	Rows []byte
	// SimSeconds is the modelled critical path: the local leg's simulated
	// extraction time or the slowest remote leg (the owner's batch extraction
	// it rode plus one wire round trip), whichever is longer.
	SimSeconds float64
	// LocalKeys and RemoteKeys split the lookup's keys by serving side.
	LocalKeys, RemoteKeys int
	// Missing counts keys whose leg missed the deadline or failed.
	Missing int
	// Err is ErrPartial when Missing > 0, or the first hard error.
	Err error
}

// routerMetrics is the router's telemetry bundle, sharded by origin node.
type routerMetrics struct {
	lookups      *telemetry.Counter
	localKeys    *telemetry.Counter
	remoteKeys   *telemetry.Counter
	crossBytes   *telemetry.Counter
	dispatches   *telemetry.Counter
	dispatchKeys *telemetry.Counter
	partials     *telemetry.Counter
	missingKeys  *telemetry.Counter
}

func newRouterMetrics(reg *telemetry.Registry) *routerMetrics {
	return &routerMetrics{
		lookups:      reg.Counter("cluster_lookups_total", "cluster lookups routed"),
		localKeys:    reg.Counter("cluster_local_keys_total", "keys served on their arrival node"),
		remoteKeys:   reg.Counter("cluster_remote_keys_total", "keys routed to a peer node's host shard"),
		crossBytes:   reg.Counter("cluster_cross_node_bytes_total", "embedding bytes moved between nodes"),
		dispatches:   reg.Counter("cluster_dispatches_total", "cross-node legs sent, one per (lookup, owner node)"),
		dispatchKeys: reg.Counter("cluster_dispatch_keys_total", "keys carried by cross-node legs"),
		partials:     reg.Counter("cluster_partial_lookups_total", "lookups that returned partial on an expired leg"),
		missingKeys:  reg.Counter("cluster_missing_keys_total", "keys lost to expired or failed legs"),
	}
}

// leg is one lookup's share for one serving node: its keys, their positions
// in the caller's key slice, and the node's reply.
type leg struct {
	keys []int64
	idx  []int
	done <-chan serve.Result
}

// Front is the sharded serving front end: the hash ring over the nodes'
// servers. It sends each leg of a lookup as one Handle on the node that
// serves it; that node's serve worker is the one coalescer a leg meets.
type Front struct {
	cfg        FrontConfig
	ring       *Ring
	nodes      []*Node
	rr         []atomic.Int64 // round-robin GPU pick per destination node
	met        *routerMetrics
	fl         *flight.Recorder
	entryBytes int
	rtt        float64 // one modelled wire round trip, seconds
	netSrc     int     // the platform's network SourceID as int

	// closeMu fences Lookup's sends against Close: legs are sent under the
	// read lock after checking closed, and Close sets closed under the write
	// lock, so no leg leaves once Close has returned. Handle never blocks, so
	// Close waits only for sends already under way.
	closeMu sync.RWMutex
	closed  bool
}

// NewFront builds the router over the given nodes. Every node must serve
// the same clustered platform shape (same Machines count as len(nodes)).
// The front does not own the nodes: Close stops routing, the caller closes
// each node's Server.
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
	ring, err := NewRing(len(nodes), defaultVnodes, cfg.Seed)
	if err != nil {
		return nil, err
	}
	reg := cfg.Telemetry
	if reg == nil {
		reg = telemetry.NewRegistry(len(nodes))
	}
	p := nodes[0].Sys.P
	return &Front{
		cfg:        cfg,
		ring:       ring,
		nodes:      nodes,
		rr:         make([]atomic.Int64, len(nodes)),
		met:        newRouterMetrics(reg),
		fl:         cfg.Flight,
		entryBytes: nodes[0].Sys.Cache.EntryBytes,
		rtt:        2 * p.Net.LatencySec,
		netSrc:     int(p.Network()),
	}, nil
}

// Ring exposes the front's hash ring (shard-ownership queries, Owned
// predicates for the nodes' engines).
func (f *Front) Ring() *Ring { return f.ring }

// Lookup routes one request that arrived at node for GPU gpu: keys the
// arrival node can serve from its own tiers (anything the placement does not
// classify as network, plus network-class keys this node's host shard owns)
// go to the local server on gpu; the rest go to their ring owners, one leg
// per owner on a round-robin GPU of it, and gather back under the deadline. A
// bad node or GPU index, or a key outside the table (serve.ErrBadKey), fails
// the lookup before any counter moves or any leg is sent; so does a closed
// front, with errClosed.
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
	// Split by serving node, keeping each key's caller position for the
	// gather.
	legs := make([]leg, len(f.nodes))
	for i, k := range keys {
		if k < 0 || k >= entries {
			return Result{Err: fmt.Errorf("%w: %d not in [0, %d)", serve.ErrBadKey, k, entries)}
		}
		owner := node
		if int(pl.SourceOf(gpu, k)) == f.netSrc {
			owner = f.ring.Owner(k)
		}
		l := &legs[owner]
		l.keys = append(l.keys, k)
		l.idx = append(l.idx, i)
	}
	out := Result{LocalKeys: len(legs[node].keys), RemoteKeys: len(keys) - len(legs[node].keys)}

	// Scatter: one Handle per non-empty leg, under the read lock that fences
	// the sends against Close. A leg counts as a dispatch once its owner's
	// admission has taken or refused it.
	f.closeMu.RLock()
	if f.closed {
		f.closeMu.RUnlock()
		return Result{Err: errClosed}
	}
	f.met.lookups.Add(node, 1)
	f.met.localKeys.Add(node, int64(out.LocalKeys))
	f.met.remoteKeys.Add(node, int64(out.RemoteKeys))
	for o := range legs {
		l := &legs[o]
		switch {
		case len(l.keys) == 0:
		case o == node:
			l.done = n.Srv.Handle(gpu, l.keys)
		default:
			dst := f.nodes[o]
			l.done = dst.Srv.Handle(int(f.rr[o].Add(1)-1)%dst.Sys.P.N, l.keys)
			f.met.dispatches.Add(node, 1)
			f.met.dispatchKeys.Add(node, int64(len(l.keys)))
			f.met.crossBytes.Add(node, int64(len(l.keys)*f.entryBytes))
		}
	}
	f.closeMu.RUnlock()

	eb := f.entryBytes
	var rows []byte
	gather := func(res serve.Result, l *leg, wire float64) {
		if res.Err != nil {
			out.Missing += len(l.keys)
			if out.Err == nil {
				out.Err = res.Err
			}
			return
		}
		out.SimSeconds = max(out.SimSeconds, res.SimSeconds+wire)
		if res.Rows == nil {
			return
		}
		if rows == nil {
			rows = make([]byte, len(keys)*eb)
		}
		for j, i := range l.idx {
			copy(rows[i*eb:(i+1)*eb], res.Rows[j*eb:(j+1)*eb])
		}
	}

	// Gather under the per-node deadline: the local leg is waited on
	// unconditionally (its server's own admission bounds it); each remote
	// leg that has not answered when the deadline fires is counted missing,
	// never awaited. A remote leg's modelled time is its owner's flush plus
	// one wire round trip.
	if l := &legs[node]; l.done != nil {
		gather(<-l.done, l, 0)
	}
	if out.RemoteKeys > 0 {
		deadline := time.NewTimer(f.cfg.Deadline)
		defer deadline.Stop()
		expired := false
		for o := range legs {
			l := &legs[o]
			if o == node || l.done == nil {
				continue
			}
			if !expired {
				select {
				case res := <-l.done:
					gather(res, l, f.rtt)
					continue
				case <-deadline.C:
					expired = true
				}
			}
			select {
			case res := <-l.done:
				gather(res, l, f.rtt)
			default:
				out.Missing += len(l.keys)
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

// Close stops routing: once it returns the front sends no more legs, and
// every later lookup gets errClosed. Legs sent before it are answered by
// their owners' servers — serve.Server.Close drains what they admitted — so
// a lookup in flight completes. The nodes' servers stay up: the caller owns
// them. Safe to call more than once.
func (f *Front) Close() {
	f.closeMu.Lock()
	f.closed = true
	f.closeMu.Unlock()
}
