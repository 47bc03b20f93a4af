package main

import (
	"fmt"
	"math"
	"runtime/debug"
	"time"

	"ugache/internal/cache"
	"ugache/internal/cluster"
	"ugache/internal/core"
	"ugache/internal/emb"
	"ugache/internal/extract"
	"ugache/internal/flight"
	"ugache/internal/platform"
	"ugache/internal/rng"
	"ugache/internal/serve"
	"ugache/internal/solver"
	"ugache/internal/telemetry"
	"ugache/internal/workload"
)

// Sizes of the common table and of the coalesced batch its hotness is
// stated for. short is the test-sized variant (harness_test.go).
const (
	commonEntries      = 400_000
	shortCommonEntries = 40_000
	commonDim          = 32 // fp32: 128 B rows
	commonRatio        = 0.10
	commonAlpha        = 1.2
	hotnessBatchKeys   = 8192 // serve.Config's default MaxBatchKeys
	flightDepth        = 4096 // ugache-serve's default -flight-depth
)

// built is one workload's system under test, as its set-up leaves it.
type built struct {
	p          *platform.Platform
	source     cache.RowSource
	entryBytes int
	ratio      float64
	hot        workload.Hotness
	reg        *telemetry.Registry

	// sys and srv are the engine and its serving front; on cluster-scatter
	// they are node 0's, and nodes/front hold the whole cluster. srv is nil
	// on train-extract, which has no serving layer.
	sys   *core.System
	srv   *serve.Server
	nodes []*cluster.Node
	front *cluster.Front

	ks *keySpace            // common-table workloads
	ds *workload.DLRDataset // train-extract
}

func (b *built) close() {
	if b.front != nil {
		b.front.Close()
	}
	for _, n := range b.nodes {
		n.Srv.Close()
	}
	if b.srv != nil && b.nodes == nil {
		b.srv.Close()
	}
}

// measureSetup builds the system `times` times and returns the last build
// with every build's wall time; earlier builds are closed, collected and
// their pages returned, so each starts from the same heap and the process's
// peak is one build's, not the overlap of two.
func measureSetup(times int, build func() (*built, error)) (*built, []float64, error) {
	var secs []float64
	for i := 0; ; i++ {
		start := time.Now()
		b, err := build()
		if err != nil {
			return nil, nil, err
		}
		secs = append(secs, time.Since(start).Seconds())
		if i == times-1 {
			return b, secs, nil
		}
		b.close()
		b = nil
		debug.FreeOSMemory() // collects, and hands the freed pages back
	}
}

// commonSetup is the set-up of the four request-serving workloads: the
// materialized table, its analytic hotness, core.Build with the shipped
// policy and mechanism, and serve.New with whatever serveCfg leaves at its
// default plus the registry and flight recorder ugache-serve always wires.
func commonSetup(o *options, p *platform.Platform, alpha, ratio float64, serveCfg serve.Config) (*built, error) {
	n := int64(commonEntries)
	if o.short {
		n = shortCommonEntries
	}
	table, err := emb.NewMaterialized("bench", n, commonDim, emb.Float32, o.seed)
	if err != nil {
		return nil, err
	}
	ks, err := newKeySpace(n, alpha, o.seed)
	if err != nil {
		return nil, err
	}
	b := &built{
		p: p, source: table, entryBytes: table.EntryBytes(), ratio: ratio,
		hot: ks.hotness(hotnessBatchKeys, 0),
		reg: telemetry.NewRegistry(p.N), ks: ks,
	}
	fl := flight.NewRecorder(p.N, flightDepth)
	b.sys, err = core.Build(b.coreConfig(fl, nil))
	if err != nil {
		return nil, err
	}
	serveCfg.Telemetry, serveCfg.Flight = b.reg, fl
	if serveCfg.Lookahead > 0 {
		// A server that is being refreshed samples the hotness it serves, as
		// ugache-serve does in every refresh mode.
		serveCfg.Sampler = cache.NewHotnessSampler(n, 1)
	}
	b.srv, err = serve.New(b.sys, serveCfg)
	if err != nil {
		return nil, err
	}
	return b, nil
}

func (b *built) coreConfig(fl *flight.Recorder, owned func(int64) bool) core.Config {
	return core.Config{
		Platform: b.p, Hotness: b.hot, EntryBytes: b.entryBytes, CacheRatio: b.ratio,
		Policy: solver.UGache{}, Mechanism: extract.Factored,
		Source: b.source, Telemetry: b.reg, Flight: fl, Owned: owned,
	}
}

// clusterSetup builds two nodes on the clustered ServerA platform, each
// behind a default server, joined by a default front. The skew and cache
// ratio are lower than the common table's so that a tenth or more of the
// keys live on the other node.
func clusterSetup(o *options) (*built, error) {
	const (
		machines = 2
		alpha    = 0.9
		ratio    = 0.02
	)
	p, err := platform.ClusterOf(platform.ServerAConfig(), platform.DefaultNetwork(machines))
	if err != nil {
		return nil, err
	}
	n := int64(commonEntries)
	if o.short {
		n = shortCommonEntries
	}
	table, err := emb.NewMaterialized("bench", n, commonDim, emb.Float32, o.seed)
	if err != nil {
		return nil, err
	}
	ks, err := newKeySpace(n, alpha, o.seed)
	if err != nil {
		return nil, err
	}
	b := &built{
		p: p, source: table, entryBytes: table.EntryBytes(), ratio: ratio,
		hot: ks.hotness(hotnessBatchKeys, 0),
		reg: telemetry.NewRegistry(p.N * machines), ks: ks,
	}
	fl := flight.NewRecorder(p.N*machines, flightDepth)
	// The ring exists before the engines, because each node's Owned
	// predicate is its shard; the front rebuilds the same ring from the seed.
	ring, err := cluster.NewRing(machines, 0, o.seed)
	if err != nil {
		return nil, err
	}
	for i := 0; i < machines; i++ {
		self := i
		sys, err := core.Build(b.coreConfig(nil, func(k int64) bool { return ring.Owner(k) == self }))
		if err != nil {
			return nil, fmt.Errorf("node %d: %w", i, err)
		}
		srv, err := serve.New(sys, serve.Config{Telemetry: b.reg, Flight: fl})
		if err != nil {
			return nil, fmt.Errorf("node %d: %w", i, err)
		}
		b.nodes = append(b.nodes, &cluster.Node{Sys: sys, Srv: srv})
	}
	b.sys, b.srv = b.nodes[0].Sys, b.nodes[0].Srv
	// Defaults but for the per-leg deadline. This virtual machine takes a
	// processor away for 50-200 ms every minute or two — both at once, or
	// only the one a server worker is on, which no goroutine of the harness
	// can see — and a lookup in flight then comes back ErrPartial from a
	// router at its default 50 ms, in about one run in five. The benchmark
	// contract wants workloads on which no operation fails, so the deadline
	// sits beyond any such pause; arming it costs the same, a lookup that
	// outlasts the default misses slo_attain's 10 ms all the same, and the
	// run that had one is marked invalid (shippedDeadline).
	b.front, err = cluster.NewFront(b.nodes, cluster.FrontConfig{
		Seed: o.seed, Deadline: 5 * time.Second, Telemetry: b.reg, Flight: fl,
	})
	if err != nil {
		return nil, err
	}
	return b, nil
}

// trainSetup is the paper's primary case: the Criteo stand-in on ServerC,
// hotness presampled from warm batches, and no serving layer.
func trainSetup(o *options) (*built, error) {
	const warmBatches = 96
	scale, samples := 0.05, trainSamplesPerGPU
	if o.short {
		scale, samples = 0.005, shortTrainSamplesPerGPU
	}
	p := platform.ServerC()
	ds, err := workload.CR.Build(scale, o.seed)
	if err != nil {
		return nil, err
	}
	r := rng.New(o.seed).Split("train-warm")
	warm := make([][]int64, warmBatches)
	for i := range warm {
		warm[i] = ds.GenBatchWith(r, samples)
	}
	hot, err := workload.ProfileBatches(ds.NumEntries(), warm)
	if err != nil {
		return nil, err
	}
	b := &built{
		p: p, source: ds.MT, entryBytes: ds.MT.MaxEntryBytes(), ratio: commonRatio,
		hot: hot, reg: telemetry.NewRegistry(p.N), ds: ds,
	}
	b.sys, err = core.Build(b.coreConfig(nil, nil))
	if err != nil {
		return nil, err
	}
	return b, nil
}

// solverInput restates the problem core.Build solved, for timing the solver
// and the filler on their own and for solving the baseline policies.
func (b *built) solverInput() *solver.Input {
	capPer := int64(math.Ceil(b.ratio * float64(len(b.hot))))
	capacity := make([]int64, b.p.N)
	for g := range capacity {
		capacity[g] = capPer
	}
	return &solver.Input{P: b.p, Hotness: b.hot, EntryBytes: b.entryBytes, Capacity: capacity}
}
