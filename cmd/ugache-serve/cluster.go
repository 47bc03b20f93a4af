package main

import (
	"fmt"
	"sync"
	"time"

	"ugache/internal/cluster"
	"ugache/internal/core"
	"ugache/internal/flight"
	"ugache/internal/platform"
	"ugache/internal/rng"
	"ugache/internal/serve"
	"ugache/internal/solver"
	"ugache/internal/telemetry"
	"ugache/internal/timeline"
)

// clusterPlatform builds the clustered twin of the named single-machine
// server: the same GPUs and intra-machine links, joined to machines-1 peers
// over the configured network fabric.
func clusterPlatform(name string, machines int, linkBW float64, latency time.Duration) (*platform.Platform, error) {
	cfg, err := platform.ConfigByName(name)
	if err != nil {
		return nil, err
	}
	net := platform.NetworkConfig{Machines: machines, LinkBW: linkBW, LatencySec: latency.Seconds()}
	return platform.ClusterOf(cfg, net)
}

// runCluster is the -nodes N mode: N in-process single-machine engines, each
// solved on the clustered platform with its own ring-shard Owned predicate,
// joined by the consistent-hash front end. Closed-loop clients issue routed
// lookups; the report adds the cluster split (network-tier hits, cross-node
// bytes, dispatch coalescing, partial failures) to the usual serving
// summary. Open-loop, refresh and prefetch remain single-node features.
func runCluster(o options) error {
	if o.openLoop || o.refresh || o.mode != "off" || o.lookahead > 0 {
		return fmt.Errorf("-nodes > 1 supports the closed-loop client mode only (no -open-loop, -refresh, -refresh-mode, -lookahead)")
	}
	p, ds, hot, err := setUp(o)
	if err != nil {
		return err
	}

	// One registry, timeline, and flight recorder shared across every node
	// and the router, so /metrics and the bundle show the whole cluster.
	reg := telemetry.NewRegistry(p.N * o.nodes)
	var tl *timeline.Recorder
	if o.traceOut != "" {
		tl = timeline.NewRecorder(p.N*o.nodes, 0)
	}
	var fl *flight.Recorder
	if o.flight {
		fl = flight.NewRecorder(p.N*o.nodes, o.flightDepth)
	}

	// The ring must exist before the engines (each node's Owned predicate is
	// its shard); rings are deterministic in (n, vnodes, seed), so the front
	// built later from the same seed is an exact twin.
	ring := cluster.MustRing(o.nodes, cluster.DefaultVnodes, o.seed)
	t0 := time.Now()
	nodes := make([]*cluster.Node, o.nodes)
	// Every node solves the same platform, hotness and capacity, so node 0
	// solves and the rest take its placement; only the Owned shard differs.
	var placement *solver.Placement
	for i := range nodes {
		self := i
		sys, err := core.Build(core.Config{
			Platform:   p,
			Hotness:    hot,
			EntryBytes: ds.MT.MaxEntryBytes(),
			CacheRatio: o.ratio,
			Source:     ds.MT,
			Solver:     solver.Options{Workers: o.workers, RelGap: o.relgap},
			Placement:  placement,
			Telemetry:  reg,
			Owned:      func(k int64) bool { return ring.Owner(k) == self },
		})
		if err != nil {
			return fmt.Errorf("node %d: %w", i, err)
		}
		placement = sys.Placement()
		srv, err := serve.New(sys, serve.Config{
			MaxBatchKeys: o.maxBatch,
			Telemetry:    reg,
			Timeline:     tl,
			Flight:       fl,
			QueueDepth:   o.queueDepth,
		})
		if err != nil {
			return fmt.Errorf("node %d: %w", i, err)
		}
		nodes[i] = &cluster.Node{Sys: sys, Srv: srv}
	}
	front, err := cluster.NewFront(nodes, cluster.FrontConfig{
		Seed:      o.seed,
		Telemetry: reg,
		Timeline:  tl,
		Flight:    fl,
	})
	if err != nil {
		return err
	}
	defer func() {
		front.Close()
		for _, nd := range nodes {
			nd.Srv.Close()
		}
	}()
	fmt.Printf("built %d nodes:     cache ratio %g solved once and filled per node in %.2fs\n",
		o.nodes, o.ratio, time.Since(t0).Seconds())

	// Closed loop across the cluster: client c sticks to node c%N (session
	// affinity), round-robining that node's GPUs.
	var (
		mu       sync.Mutex
		lats     []time.Duration
		firstErr error
		partials int64
		missing  int64
	)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < o.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r := rng.New(o.seed).Split(fmt.Sprintf("client%d", c))
			node := c % o.nodes
			var myLats []time.Duration
			var myPartials, myMissing int64
			for i := 0; i < o.requests; i++ {
				keys := ds.GenBatchWith(r, o.batch)
				reqStart := time.Now()
				res := front.Lookup(node, (c+i)%p.N, keys)
				if res.Err != nil && res.Err != cluster.ErrPartial {
					mu.Lock()
					if firstErr == nil {
						firstErr = fmt.Errorf("client %d: %w", c, res.Err)
					}
					mu.Unlock()
					return
				}
				if res.Err == cluster.ErrPartial {
					myPartials++
					myMissing += int64(res.Missing)
				}
				myLats = append(myLats, time.Since(reqStart))
			}
			mu.Lock()
			lats = append(lats, myLats...)
			partials += myPartials
			missing += myMissing
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	if firstErr != nil {
		return firstErr
	}

	p50, p99, maxLat := latencyQuantiles(lats)
	metric := reg.Value
	total := len(lats)
	fmt.Printf("\n%d clients x %d requests (%d samples each) over %d nodes in %.2fs\n",
		o.clients, o.requests, o.batch, o.nodes, wall.Seconds())
	fmt.Printf("throughput:        %.0f req/s, %.0f keys/s\n",
		float64(total)/wall.Seconds(), metric("serve_requested_keys_total")/wall.Seconds())
	fmt.Printf("latency:           p50 %v  p99 %v  max %v\n", p50, p99, maxLat)
	printHitTiers(reg, "")
	fmt.Printf("router:            %.0f lookups; %.0f keys local, %.0f cross-node (%.0f dispatches, %.1f keys/dispatch)\n",
		metric("cluster_lookups_total"), metric("cluster_local_keys_total"),
		metric("cluster_remote_keys_total"), metric("cluster_dispatches_total"),
		metric("cluster_dispatch_keys_total")/maxF64(metric("cluster_dispatches_total"), 1))
	fmt.Printf("cross-node bytes:  %.1f MB over the wire (queue peak %.0f keys)\n",
		metric("cluster_cross_node_bytes_total")/1e6, metric("cluster_router_queue_depth_peak"))
	if partials > 0 {
		fmt.Printf("partial results:   %d lookups returned partial (%d keys missed the deadline)\n", partials, missing)
	}
	if err := writeTrace(tl, o.traceOut, ""); err != nil {
		return err
	}
	return writeMetricsJSON(reg, o.metricsOut)
}

func maxF64(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
