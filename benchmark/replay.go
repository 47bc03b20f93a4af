package main

import (
	"fmt"
	"runtime"
	"time"

	"ugache/internal/cache"
	"ugache/internal/core"
	"ugache/internal/extract"
	"ugache/internal/hashtable"
	"ugache/internal/platform"
	"ugache/internal/serve"
	"ugache/internal/sim"
	"ugache/internal/solver"
	"ugache/internal/workload"
)

// The traced run measures every layer from outside: after the serving
// windows it reads the shapes of the batches the server coalesced from its
// public trace ring, rebuilds batches of those shapes from the workload's
// own key distribution, and times each layer's public entry point on them.
// The per-batch timings become the layer metrics (medians over batches) and
// a synthesized span tree per batch, from which the ledger's self times come.

const (
	replayShapes = 64 // coalesced batch shapes replayed per serving workload
	stagingSlots = 2 * hotnessBatchKeys
)

// replayBatch is one batch to push through the layers: the keys as
// requested (duplicates and all) on one GPU, and every GPU's unique keys.
type replayBatch struct {
	gpu   int
	raw   []int64
	batch extract.Batch
}

// timed runs fn and returns how long it took.
func timed(fn func()) time.Duration {
	start := time.Now()
	fn()
	return time.Since(start)
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// shapedBatch draws a batch with exactly `requested` keys of which exactly
// `unique` are distinct, from the workload's key distribution.
func shapedBatch(draw func() int64, gpus, gpu, requested, unique int) replayBatch {
	seen := make(map[int64]struct{}, unique)
	raw := make([]int64, 0, requested)
	uniq := make([]int64, 0, unique)
	for len(raw) < requested {
		k := draw()
		_, dup := seen[k]
		needFresh := unique - len(uniq)
		switch {
		case dup && requested-len(raw) > needFresh:
			raw = append(raw, k)
		case !dup && needFresh > 0:
			seen[k] = struct{}{}
			raw = append(raw, k)
			uniq = append(uniq, k)
		case !dup && len(uniq) == 0:
			// A shape with no distinct key cannot be drawn; keep the key.
			raw = append(raw, k)
		}
	}
	rb := replayBatch{gpu: gpu, raw: raw, batch: extract.Batch{Keys: make([][]int64, gpus)}}
	rb.batch.Keys[gpu] = uniq
	return rb
}

// One set of replay batches per timed layer call, plus one to grow the
// scratch on. Each call gets keys no earlier call has touched, so none runs
// on a processor cache its caller warmed; batch i has the same shape in
// every set.
const (
	setWarm = iota
	setDedup
	setCoreExtract
	setExtractRun
	setSimRun
	setCoreLookup
	setGather
	setBulkLookup
	setControl
	numSets
)

// replaySets picks what to replay: batches drawn to the shapes of the
// server's last coalesced batches, or train-extract's own pooled iterations
// dealt round-robin.
func replaySets(b *built, m *measured, srv *serve.Server) [][]replayBatch {
	sets := make([][]replayBatch, numSets)
	if srv == nil {
		for i := 0; i+numSets <= len(m.iters); i += numSets {
			for s := range sets {
				sets[s] = append(sets[s], replayBatch{raw: m.iters[i+s].raw0, batch: m.iters[i+s].batch})
			}
		}
		return sets
	}
	shapes := srv.Trace().Snapshot(nil)
	if len(shapes) > replayShapes {
		shapes = shapes[len(shapes)-replayShapes:]
	}
	for _, sh := range shapes {
		if sh.UniqueKeys == 0 {
			continue
		}
		for s := range sets {
			sets[s] = append(sets[s], shapedBatch(m.drawKey, b.p.N, sh.GPU, sh.RequestedKeys, sh.UniqueKeys))
		}
	}
	return sets
}

// factoredDemands rebuilds the demand plan the factored mechanism submits
// to the fluid simulator for a source-volume matrix (§5.3: one dedicated
// core group per source, padding into the local group when done), from the
// platform's public routes and dedications alone.
func factoredDemands(p *platform.Platform, vol [][]float64) []sim.Demand {
	ns := p.NumSources()
	demands := make([]sim.Demand, 0, p.N*ns)
	for g := 0; g < p.N; g++ {
		path, _ := p.Path(g, platform.SourceID(g))
		demands = append(demands, sim.Demand{Bytes: vol[g][g], RCore: p.GPU.RCoreLocal, Path: path, PadTo: -1})
	}
	for g := 0; g < p.N; g++ {
		ded := p.FEMDedication(g)
		padders := 0
		for j := 0; j < ns; j++ {
			if j == g {
				continue
			}
			if vol[g][j] > 0 {
				path, _ := p.Path(g, platform.SourceID(j))
				demands = append(demands, sim.Demand{
					Bytes: vol[g][j], Cores: ded[j], RCore: p.RCore(g, platform.SourceID(j)),
					Path: path, PadTo: g,
				})
				padders++
			} else if ded[j] > 0 {
				demands[g].Cores += ded[j]
			}
		}
		if vol[g][g] > 0 && padders == 0 && demands[g].Cores == 0 {
			demands[g].Cores = float64(p.GPU.SMs)
		}
	}
	return demands
}

// layerTimings are one replayed batch's measurements.
type layerTimings struct {
	keys, gatherKeys, rawKeys, gpuKeys, ctlKeys      int
	dedup, coreExtract, extractRun, simRun           time.Duration
	coreLookup, gather, bulkLookup, observe, consume time.Duration
	phases                                           int
	pcieUtil, nvlinkUtil                             float64
	localBytes, peerBytes, hostBytes, netBytes       float64
}

// replayer holds the scratch every replayed call reuses, as a serving
// worker would.
type replayer struct {
	b       *built
	dedup   *hashtable.Dedup
	core    *core.Scratch
	ext     *extract.Scratch
	gather  *cache.GatherScratch
	sim     sim.RunScratch
	simLog  sim.RunScratch
	rows    [][]byte
	sampler *cache.HotnessSampler
	arena   *cache.StagingArena
	hit     []bool
	groups  [][]int64
	locs    []hashtable.Location
	found   []bool
}

func newReplayer(b *built) (*replayer, error) {
	arena, err := cache.NewStaging(stagingSlots, b.entryBytes, true)
	if err != nil {
		return nil, err
	}
	r := &replayer{
		b:     b,
		dedup: hashtable.NewDedup(hotnessBatchKeys), core: core.NewScratch(),
		ext: extract.NewScratch(), gather: cache.NewGatherScratch(),
		rows:    make([][]byte, b.p.N),
		sampler: cache.NewHotnessSampler(int64(len(b.hot)), 1),
		arena:   arena,
		groups:  make([][]int64, b.p.N),
	}
	r.simLog.Record = true
	return r, nil
}

// prepare sizes the row buffers for one batch and counts its keys.
func (r *replayer) prepare(rb *replayBatch) (keys int) {
	for g, ks := range rb.batch.Keys {
		keys += len(ks)
		if need := len(ks) * r.b.entryBytes; need > len(r.rows[g]) {
			r.rows[g] = make([]byte, need)
		}
	}
	return keys
}

// runAll pushes batch i of every set through that set's layer call and
// returns the timings per batch index.
func (r *replayer) runAll(sets [][]replayBatch, since func() time.Duration) ([]layerTimings, []time.Duration, error) {
	n := len(sets[setWarm])
	ts := make([]layerTimings, n)
	at := make([]time.Duration, n)
	for i := 0; i < n; i++ {
		at[i] = since()
		all := make([]*replayBatch, numSets)
		for s := range all {
			all[s] = &sets[s][i]
		}
		// Everything once on the warm-up set: the scratch grows here.
		if _, err := r.run(func(int) *replayBatch { return all[setWarm] }); err != nil {
			return nil, nil, err
		}
		var err error
		if ts[i], err = r.run(func(s int) *replayBatch { return all[s] }); err != nil {
			return nil, nil, err
		}
	}
	return ts, at, nil
}

// run times every layer's public entry point, each on the batch pick
// hands it for that call.
func (r *replayer) run(pick func(set int) *replayBatch) (t layerTimings, err error) {
	p := r.b.p

	// hashtable: the coalescer's dedup pass over the keys as requested.
	rb := pick(setDedup)
	t.rawKeys = len(rb.raw)
	t.dedup = timed(func() {
		r.dedup.Reset(len(rb.raw))
		for _, k := range rb.raw {
			r.dedup.Add(k)
		}
	})

	// core -> extract -> sim, outermost first. A result aliases its scratch,
	// so what is read from it is read at once.
	rb = pick(setCoreExtract)
	var res *extract.Result
	t.coreExtract = timed(func() { res, err = r.b.sys.ExtractBatchWith(&rb.batch, r.core) })
	if err != nil {
		return t, err
	}
	t.pcieUtil = res.Utilization(p, p.PCIeIDs())
	t.nvlinkUtil = res.Utilization(p, p.NVLinkIDs())
	for g, row := range res.SrcBytes {
		for j, bytes := range row {
			switch {
			case j == g:
				t.localBytes += bytes
			case j < p.N:
				t.peerBytes += bytes
			case j == int(p.Host()):
				t.hostBytes += bytes
			default:
				t.netBytes += bytes
			}
		}
	}
	ex := r.b.sys.Extractor()
	rb = pick(setExtractRun)
	t.extractRun = timed(func() { _, err = ex.RunWith(extract.Factored, &rb.batch, r.ext) })
	if err != nil {
		return t, err
	}
	if res, err = ex.RunWith(extract.Factored, &pick(setSimRun).batch, r.ext); err != nil {
		return t, err
	}
	modelled := res.Time
	demands := factoredDemands(p, res.SrcBytes)
	t.simRun = timed(func() { _, err = p.Topo.RunWith(demands, &r.sim) })
	if err != nil {
		return t, err
	}
	logged, err := p.Topo.RunWith(demands, &r.simLog)
	if err != nil {
		return t, err
	}
	// factoredDemands restates the extractor's plan from outside; the
	// simulator is deterministic, so the same plan gives the same makespan
	// to the last bit, and anything else means the copy has drifted.
	if logged.Makespan != modelled {
		return t, fmt.Errorf("replay: the rebuilt demands run %g s in the simulator, the extractor's own %g s", logged.Makespan, modelled)
	}
	t.phases = logged.Phases.Phases()

	// core -> cache -> hashtable: the functional gather.
	rb = pick(setCoreLookup)
	t.keys = r.prepare(rb)
	t.coreLookup = timed(func() {
		for g, keys := range rb.batch.Keys {
			if len(keys) > 0 && err == nil {
				err = r.b.sys.LookupWith(g, keys, r.rows[g], r.core)
			}
		}
	})
	if err != nil {
		return t, err
	}
	rb = pick(setGather)
	t.gatherKeys = r.prepare(rb)
	t.gather = timed(func() {
		for g, keys := range rb.batch.Keys {
			if len(keys) > 0 && err == nil {
				err = r.b.sys.Cache.GatherWith(g, keys, r.rows[g], r.gather)
			}
		}
	})
	if err != nil {
		return t, err
	}
	pl, caches := r.b.sys.Placement(), r.b.sys.Cache.Caches()
	for g, keys := range pick(setBulkLookup).batch.Keys {
		for src := range r.groups {
			r.groups[src] = r.groups[src][:0]
		}
		for _, k := range keys {
			if src := int(pl.SourceOf(g, k)); src < p.N {
				r.groups[src] = append(r.groups[src], k)
			}
		}
		for src, group := range r.groups {
			if len(group) == 0 {
				continue
			}
			if len(group) > len(r.locs) {
				r.locs, r.found = make([]hashtable.Location, len(group)), make([]bool, len(group))
			}
			t.gpuKeys += len(group)
			t.bulkLookup += timed(func() { caches[src].Table.BulkLookup(group, r.locs[:len(group)], r.found[:len(group)]) })
		}
	}

	// cache control path on the flush: sampler observation and the staging
	// arena's consume (half the keys staged), on as many of one GPU's keys
	// as half the arena holds.
	rb = pick(setControl)
	r.prepare(rb)
	uniq := rb.batch.Keys[rb.gpu]
	if len(uniq) > stagingSlots/2 {
		uniq = uniq[:stagingSlots/2]
	}
	t.ctlKeys = len(uniq)
	t.observe = timed(func() { r.sampler.Shard(0).Observe(uniq) })
	if err := r.arena.Commit(uniq[:len(uniq)/2], r.rows[rb.gpu], 1, 0); err != nil {
		return t, err
	}
	if len(uniq) > len(r.hit) {
		r.hit = make([]bool, len(uniq))
	}
	t.consume = timed(func() { r.arena.Consume(uniq, 0, 0, 1, r.rows[rb.gpu], r.hit) })
	return t, nil
}

// spansOf lays one batch's timings out as the span tree its calls form:
// core.extract ⊃ extract.run ⊃ sim.run, core.lookup ⊃ cache.gather ⊃
// hashtable.bulk_lookup, and the dedup pass before them.
func (t *layerTimings) spansOf(log *spanLog, req int64, at time.Duration) {
	log.add("hashtable.dedup", 0, req, at, at+t.dedup)
	at += t.dedup
	ce := log.add("core.extract", 0, req, at, at+t.coreExtract)
	er := log.add("extract.run", ce, req, at, at+t.extractRun)
	log.add("sim.run", er, req, at, at+t.simRun)
	at += t.coreExtract
	cl := log.add("core.lookup", 0, req, at, at+t.coreLookup)
	cg := log.add("cache.gather", cl, req, at, at+t.gather)
	log.add("hashtable.bulk_lookup", cg, req, at, at+t.bulkLookup)
}

// traceLayers fills in the per-layer metrics of a traced run and returns
// all its spans: the drivers' request spans plus the replay's.
func traceLayers(o *options, rep *workloadReport, b *built, m *measured) ([]span, error) {
	log := newSpanLog(8)
	if b.srv != nil {
		serveLayer(o, rep, b, m)
	}
	if err := solverLayer(rep, b); err != nil {
		return nil, err
	}

	r, err := newReplayer(b)
	if err != nil {
		return nil, err
	}
	all, at, err := r.runAll(replaySets(b, m, b.srv), m.ck.since)
	if err != nil {
		return nil, err
	}
	for i := range all {
		all[i].spansOf(log, int64(i), at[i])
	}
	per := func(f func(t *layerTimings) float64) float64 {
		var xs []float64
		for i := range all {
			xs = append(xs, f(&all[i]))
		}
		return median(xs)
	}
	total := func(f func(t *layerTimings) float64) float64 {
		s := 0.0
		for i := range all {
			s += f(&all[i])
		}
		return s
	}
	perKey := func(d func(t *layerTimings) time.Duration, n func(t *layerTimings) int) float64 {
		return per(func(t *layerTimings) float64 { return ratio(float64(d(t)), float64(n(t))) })
	}
	keys := func(t *layerTimings) int { return t.keys }
	rep.set("core.extract_us_per_batch", per(func(t *layerTimings) float64 { return us(t.coreExtract) }))
	rep.set("core.lookup_ns_per_key", perKey(func(t *layerTimings) time.Duration { return t.coreLookup }, keys))
	rep.set("core.overhead_us_per_batch", per(func(t *layerTimings) float64 { return us(t.coreExtract - t.extractRun) }))
	rep.set("extract.run_us_per_batch", per(func(t *layerTimings) float64 { return us(t.extractRun) }))
	bytes := total(func(t *layerTimings) float64 { return t.localBytes + t.peerBytes + t.hostBytes + t.netBytes })
	rep.set("extract.local_byte_share", ratio(total(func(t *layerTimings) float64 { return t.localBytes }), bytes))
	rep.set("extract.peer_byte_share", ratio(total(func(t *layerTimings) float64 { return t.peerBytes }), bytes))
	rep.set("extract.host_byte_share", ratio(total(func(t *layerTimings) float64 { return t.hostBytes }), bytes))
	if b.p.HasNetwork() {
		rep.set("extract.network_byte_share", ratio(total(func(t *layerTimings) float64 { return t.netBytes }), bytes))
	}
	rep.set("extract.pcie_util", per(func(t *layerTimings) float64 { return t.pcieUtil }))
	rep.set("extract.nvlink_util", per(func(t *layerTimings) float64 { return t.nvlinkUtil }))
	rep.set("sim.run_us_per_batch", per(func(t *layerTimings) float64 { return us(t.simRun) }))
	rep.set("sim.phases_per_run", per(func(t *layerTimings) float64 { return float64(t.phases) }))
	rep.set("hashtable.bulk_lookup_ns_per_key", perKey(func(t *layerTimings) time.Duration { return t.bulkLookup }, func(t *layerTimings) int { return t.gpuKeys }))
	rep.set("hashtable.dedup_ns_per_key", perKey(func(t *layerTimings) time.Duration { return t.dedup }, func(t *layerTimings) int { return t.rawKeys }))
	rep.set("cache.gather_ns_per_key", perKey(func(t *layerTimings) time.Duration { return t.gather }, func(t *layerTimings) int { return t.gatherKeys }))
	ctlKeys := func(t *layerTimings) int { return t.ctlKeys }
	rep.set("cache.sampler_observe_ns_per_key", perKey(func(t *layerTimings) time.Duration { return t.observe }, ctlKeys))
	rep.set("cache.staging_consume_ns_per_key", perKey(func(t *layerTimings) time.Duration { return t.consume }, ctlKeys))

	if err := controlPath(rep, b, r.sampler); err != nil {
		return nil, err
	}
	refreshSpans(rep, m, log)
	if b.front != nil {
		if err := clusterLayer(rep, b, m, log); err != nil {
			return nil, err
		}
	}

	spans := append(m.spans, log.spans...)
	rep.Ledger = buildLedger(spans, func(name string) (string, float64) {
		switch name {
		case "core.refresh", "solver.solve", "cache.refresh":
			return "refresh_s", rep.value("refresh_s") * 1e3
		}
		return "p50_ms", rep.value("p50_ms")
	})
	if b.srv != nil {
		flush := per(func(t *layerTimings) float64 { return ms(t.dedup + t.coreExtract + t.coreLookup) })
		rep.set("serve.residual_ms", rep.value("p50_ms")-rep.value("serve.queue_wait_p50_ms")-flush)
	}
	return spans, nil
}

// serveLayer derives the serve and cluster counter metrics from the window
// boundary snapshots.
func serveLayer(o *options, rep *workloadReport, b *built, m *measured) {
	iv := m.bounds.all()
	batches := iv.delta("serve_batches_total")
	requests := iv.delta("serve_requests_total")
	if metricByName("serve.admit_ns").on(o.workload) {
		rep.set("serve.admit_ns", median(m.admitNs))
	}
	rep.set("serve.queue_wait_p50_ms", histogramP50Ms(b.reg, "serve_queue_wait_seconds"))
	rep.set("serve.fill_timer_share", ratio(iv.delta("serve_batch_fill_timer_total"), batches))
	rep.set("serve.fill_full_share", ratio(iv.delta("serve_batch_fill_full_total"), batches))
	rep.set("serve.batches", batches)
	rep.set("serve.mean_batch_keys", ratio(iv.delta("serve_unique_keys_total"), batches))
	rep.set("serve.dedup_ratio", ratio(iv.delta("serve_unique_keys_total"), iv.delta("serve_requested_keys_total")))
	rep.set("serve.shed", iv.delta("serve_rejected_total"))
	rep.set("serve.queue_depth_peak", iv.to["serve_queue_depth_peak"])
	rep.set("serve.allocs_per_req", ratio(float64(m.bounds.mem[1].Mallocs-m.bounds.mem[0].Mallocs), requests))
	rep.set("serve.alloc_bytes_per_req", ratio(float64(m.bounds.mem[1].TotalAlloc-m.bounds.mem[0].TotalAlloc), requests))
	rep.set("serve.model_ms_per_batch", iv.simExtractMs())
	if o.workload == refreshDrift {
		rep.set("serve.prefetch_hit_share", ratio(iv.delta("serve_fill_prefetch_hit"), iv.delta("serve_unique_keys_total")))
		rep.set("serve.stale_served_keys", iv.delta("serve_stale_served_keys_total"))
		rep.set("serve.prefetch_dropped", iv.delta("serve_prefetch_dropped_windows_total"))
	}
	if b.front != nil {
		lookups := iv.delta("cluster_lookups_total")
		dispatches := iv.delta("cluster_dispatches_total")
		remote := iv.delta("cluster_remote_keys_total")
		rep.set("cluster.cross_node_key_share", ratio(remote, remote+iv.delta("cluster_local_keys_total")))
		rep.set("cluster.dispatches_per_lookup", ratio(dispatches, lookups))
		rep.set("cluster.sub_keys_per_dispatch", ratio(iv.delta("cluster_dispatch_keys_total"), dispatches))
		rep.set("cluster.partials", iv.delta("cluster_partial_lookups_total"))
	}
}

// solverLayer times the policy solve and the fill on their own — core.Build
// runs both inside set-up — and reads the placement's own figures.
func solverLayer(rep *workloadReport, b *built) error {
	in := b.solverInput()
	var pl *solver.Placement
	var err error
	solve := timed(func() { pl, err = solver.SolveWith(solver.UGache{}, in, solver.Options{}) })
	if err != nil {
		return err
	}
	fill := timed(func() {
		_, err = cache.Fill(b.p, pl, cache.FillOptions{CapacityEntries: in.Capacity, Source: b.source})
	})
	if err != nil {
		return err
	}
	runtime.GC() // the filled copy was only there to be timed
	rep.set("solver.solve_s", solve.Seconds())
	rep.set("cache.fill_s", fill.Seconds())
	rep.set("solver.nodes", float64(pl.SolveNodes))
	rep.set("solver.blocks", float64(len(pl.Blocks)))
	rep.set("solver.est_max_ms", maxOf(pl.EstTimes)*1e3)
	rep.set("solver.est_over_lower_bound", ratio(maxOf(pl.EstTimes), pl.LowerBound))
	return nil
}

// controlPath times the pieces of the refresh control loop that no workload
// isolates: merging the sampler's shards, scoring drift, and the hash-table
// writes a delta apply is made of.
func controlPath(rep *workloadReport, b *built, sampler *cache.HotnessSampler) error {
	dst := make(workload.Hotness, len(b.hot))
	det, err := cache.NewDriftDetector(sampler, b.hot, cache.DriftConfig{})
	if err != nil {
		return err
	}
	var merge, check, insert, remove []float64
	var keys []int64
	b.sys.Cache.Caches()[0].Table.Range(func(k int64, _ hashtable.Location) bool {
		keys = append(keys, k)
		return len(keys) < 1<<15
	})
	for round := 0; round < 3; round++ {
		sampler.Shard(0).Observe(keys) // a Check may reset the window; keep it non-empty
		merge = append(merge, us(timed(func() { _, err = sampler.HotnessInto(dst) })))
		if err != nil {
			return err
		}
		check = append(check, us(timed(func() { _, err = det.Check() })))
		if err != nil {
			return err
		}
		table := hashtable.New(len(keys))
		insert = append(insert, ratio(float64(timed(func() {
			for i, k := range keys {
				if e := table.Insert(k, hashtable.Location{Offset: int64(i)}); e != nil {
					err = e
				}
			}
		})), float64(len(keys))))
		if err != nil {
			return err
		}
		remove = append(remove, ratio(float64(timed(func() {
			for _, k := range keys {
				table.Delete(k)
			}
		})), float64(len(keys))))
	}
	rep.set("cache.sample_merge_us", median(merge))
	rep.set("cache.drift_check_us", median(check))
	rep.set("hashtable.insert_ns_per_key", median(insert))
	rep.set("hashtable.delete_ns_per_key", median(remove))
	return nil
}

// refreshSpans reports refresh-drift's control-path metrics and lays each
// refresh out as core.refresh ⊃ {solver.solve, cache.refresh}.
func refreshSpans(rep *workloadReport, m *measured, log *spanLog) {
	if len(m.refresh) == 0 {
		return
	}
	var apply, solve, moved []float64
	for i, r := range m.refresh {
		apply = append(apply, (r.wall - r.solve).Seconds())
		solve = append(solve, r.solve.Seconds())
		moved = append(moved, float64(r.moved))
		id := log.add("core.refresh", 0, int64(i), r.start, r.start+r.wall)
		log.add("solver.solve", id, int64(i), r.start, r.start+r.solve)
		log.add("cache.refresh", id, int64(i), r.start+r.solve, r.start+r.wall)
	}
	rep.set("cache.refresh_apply_s", median(apply))
	rep.set("solver.resolve_s", median(solve))
	rep.set("cache.refresh_moved_entries", median(moved))
}

// clusterLayer splits fresh key sets the way the router does and hands each
// side straight to its node's server, timing the two legs of the scatter
// without the router's own coalescer in between.
func clusterLayer(rep *workloadReport, b *built, m *measured, log *spanLog) error {
	const lookups = 64
	ring := b.front.Ring()
	network := b.p.Network()
	pl := b.sys.Placement()

	probe := make([]int64, 1<<16)
	for i := range probe {
		probe[i] = m.drawKey()
	}
	owners := 0
	rep.set("cluster.ring_owner_ns", ratio(float64(timed(func() {
		for _, k := range probe {
			owners += ring.Owner(k)
		}
	})), float64(len(probe))))

	var localMs, remoteMs []float64
	for i := 0; i < lookups; i++ {
		gpu := i % b.p.N
		var local, remote []int64
		for j := 0; j < scatterKeys; j++ {
			k := m.drawKey()
			if pl.SourceOf(gpu, k) != network || ring.Owner(k) == 0 {
				local = append(local, k)
			} else {
				remote = append(remote, k)
			}
		}
		if len(local) == 0 || len(remote) == 0 {
			continue
		}
		start := m.ck.since()
		lc := b.nodes[0].Srv.Handle(gpu, local)
		rc := b.nodes[1].Srv.Handle(gpu, remote)
		var localEnd, remoteEnd time.Duration
		for lc != nil || rc != nil {
			select {
			case res := <-lc:
				localEnd, lc = m.ck.since(), nil
				if res.Err != nil {
					return res.Err
				}
			case res := <-rc:
				remoteEnd, rc = m.ck.since(), nil
				if res.Err != nil {
					return res.Err
				}
			}
		}
		id := log.add("cluster.lookup", 0, int64(i), start, max(localEnd, remoteEnd))
		log.add("local-leg", id, int64(i), start, localEnd)
		log.add("remote-leg", id, int64(i), start, remoteEnd)
		localMs = append(localMs, ms(localEnd-start))
		remoteMs = append(remoteMs, ms(remoteEnd-start))
	}
	rep.set("cluster.local_leg_ms", median(localMs))
	rep.set("cluster.remote_leg_ms", median(remoteMs))
	return nil
}
