// Package ugache is a Go reproduction of UGache (SOSP '23): a unified
// multi-GPU embedding cache for embedding-based deep learning, built on a
// deterministic simulation of multi-GPU platforms (V100/A100 servers with
// NVLink, NVSwitch and PCIe).
//
// The package exposes UGache as an embedding layer, mirroring the paper's
// integration surface (§7.1): construct a System from a platform, per-entry
// hotness statistics and a cache budget; the system solves the cache policy
// (§6), fills the simulated GPU caches, and serves batched extractions
// through the factored extraction mechanism (§5). Lookup returns real
// embedding bytes when a host store is attached; ExtractBatch returns the
// simulated extraction timing used throughout the paper's evaluation.
//
// Quick start:
//
//	p := ugache.ServerC()                             // 8×A100 + NVSwitch
//	table, _ := ugache.NewTable("emb", 1_000_000, 128, ugache.Float32, 42)
//	hot, _ := ugache.ProfileBatches(table.NumEntries, batches)
//	sys, _ := ugache.New(ugache.Config{
//		Platform:   p,
//		Hotness:    hot,
//		EntryBytes: table.EntryBytes(),
//		CacheRatio: 0.10,
//		Source:     table,
//	})
//	out := make([]byte, len(keys)*table.EntryBytes())
//	_ = sys.Lookup(0, keys, out, nil)                 // real bytes
//	res, _ := sys.ExtractBatch(batch, nil)            // simulated timing
//
// The internal packages contain the full system: the fluid-flow bandwidth
// simulator (internal/sim), platform models (internal/platform), the policy
// solver with its LP machinery (internal/solver, internal/lp), extraction
// mechanisms (internal/extract), cache state and refresh (internal/cache),
// workload generators (internal/workload, internal/graph), the paper's
// baseline systems (internal/baselines), the GNN/DLR applications
// (internal/app) and the benchmark harness that regenerates every table and
// figure (internal/bench).
package ugache

import (
	"io"
	"net/http"

	"ugache/internal/cache"
	"ugache/internal/core"
	"ugache/internal/emb"
	"ugache/internal/extract"
	"ugache/internal/flight"
	"ugache/internal/platform"
	"ugache/internal/rng"
	"ugache/internal/serve"
	"ugache/internal/solver"
	"ugache/internal/telemetry"
	"ugache/internal/timeline"
	"ugache/internal/workload"
)

// Platform is a simulated multi-GPU server.
type Platform = platform.Platform

// SourceID identifies a source location (GPU index, or Platform.Host()).
type SourceID = platform.SourceID

// PlatformConfig describes a custom platform for NewPlatform.
type PlatformConfig = platform.Config

// GPUModel holds per-device constants.
type GPUModel = platform.GPUModel

// Stock GPU models.
var (
	V100x16 = platform.V100x16
	V100x32 = platform.V100x32
	A100x80 = platform.A100x80
)

// ServerA returns the paper's 4×V100 hard-wired testbed.
func ServerA() *Platform { return platform.ServerA() }

// ServerB returns the paper's 8×V100 DGX-1 testbed (unconnected pairs).
func ServerB() *Platform { return platform.ServerB() }

// ServerC returns the paper's 8×A100 NVSwitch testbed.
func ServerC() *Platform { return platform.ServerC() }

// NewPlatform builds a custom platform.
func NewPlatform(cfg PlatformConfig) (*Platform, error) { return platform.New(cfg) }

// Hotness is the per-entry expected accesses per iteration (§6.1).
type Hotness = workload.Hotness

// ProfileBatches measures hotness from recorded key batches (presence
// counting with Good–Turing tail smoothing).
func ProfileBatches(numEntries int64, batches [][]int64) (Hotness, error) {
	return workload.ProfileBatches(numEntries, batches)
}

// DType is an embedding element type.
type DType = emb.DType

// Element types.
const (
	Float32 = emb.Float32
	Float16 = emb.Float16
)

// Table is a host-resident embedding table.
type Table = emb.Table

// NewTable creates a procedural (generate-on-read) table.
func NewTable(name string, n int64, dim int, dtype DType, seed uint64) (*Table, error) {
	return emb.New(name, n, dim, dtype, seed)
}

// NewMaterializedTable creates a table with real backing bytes. The rows
// build in the background while the caller profiles hotness and solves; the
// first row read (New's cache fill) waits for the whole table.
func NewMaterializedTable(name string, n int64, dim int, dtype DType, seed uint64) (*Table, error) {
	return emb.NewMaterialized(name, n, dim, dtype, seed)
}

// MultiTable flattens several tables into one key space (DLR-style).
type MultiTable = emb.MultiTable

// NewMultiTable builds the flattened view.
func NewMultiTable(tables []*Table) (*MultiTable, error) { return emb.NewMultiTable(tables) }

// Policy is a cache-policy algorithm (§6).
type Policy = solver.Policy

// Stock policies.
var (
	// PolicyUGache is the paper's solver (default).
	PolicyUGache Policy = solver.UGache{}
	// PolicyReplication is the HPS/GNNLab-style per-GPU cache.
	PolicyReplication Policy = solver.Replication{}
	// PolicyPartition is the WholeGraph/SOK-style partition cache.
	PolicyPartition Policy = solver.Partition{}
	// PolicyCliquePartition is Quiver's clique partition.
	PolicyCliquePartition Policy = solver.CliquePartition{}
	// PolicyOptimal is the exact LP reference (Fig. 16): one formulation, the
	// replication-count LP of a symmetric platform with equal capacities. It
	// refuses any other input (Server B, unequal capacities) with the reason.
	PolicyOptimal Policy = solver.OptimalLP{}
)

// PolicyByName resolves a stock policy by its Name.
func PolicyByName(name string) (Policy, error) { return solver.PolicyByName(name) }

// Placement is a solved cache policy: a function of its inputs (platform,
// hotness, row size and capacities), which Build solves and Refresh re-solves
// (§7.2). Read a system's with System.Placement.
type Placement = solver.Placement

// Mechanism selects the extraction scheme (§5).
type Mechanism = extract.Mechanism

// Extraction mechanisms.
const (
	Factored     = extract.Factored
	PeerRandom   = extract.PeerRandom
	MessageBased = extract.MessageBased
)

// Batch is one iteration's unique keys per destination GPU.
type Batch = extract.Batch

// ExtractResult is one simulated extraction's timing.
type ExtractResult = extract.Result

// Config describes a UGache instance; see core.Config for field docs.
type Config = core.Config

// System is a built UGache instance: the embedding layer of §4.
type System = core.System

// New solves the cache policy and fills the caches.
func New(cfg Config) (*System, error) { return core.Build(cfg) }

// Scratch holds the reusable buffers of the per-iteration hot path. Pass
// one to System.ExtractBatch / System.Lookup from a single goroutine to make
// steady-state lookups and extractions allocation-free (nil makes one per
// call); see the core package for the aliasing contract.
type Scratch = core.Scratch

// NewScratch returns an empty Scratch; buffers grow on first use.
func NewScratch() *Scratch { return core.NewScratch() }

// RefreshConfig tunes the §7.2 background refresh.
type RefreshConfig = cache.RefreshConfig

// RefreshReport summarizes one refresh (Fig. 17).
type RefreshReport = cache.RefreshReport

// DefaultRefreshConfig mirrors the paper's refresh behaviour.
func DefaultRefreshConfig() RefreshConfig { return cache.DefaultRefreshConfig() }

// HotnessSampler records foreground batches for refresh decisions (§7.2).
type HotnessSampler = cache.HotnessSampler

// NewHotnessSampler records every `every`-th observed batch.
func NewHotnessSampler(numEntries int64, every int) *HotnessSampler {
	return cache.NewHotnessSampler(numEntries, every)
}

// ServeConfig tunes the serving engine (the cap on one coalesced batch,
// queue depths and admission, lookahead).
type ServeConfig = serve.Config

// Server is the concurrent serving engine: one worker per GPU coalesces
// many small lookup requests into iteration-sized extraction batches.
// Lookups run concurrently with background Refresh calls on the system.
type Server = serve.Server

// ServeResult is one served request's outcome: its rows (functional mode)
// plus the simulated extraction cost of the coalesced batch it rode in.
type ServeResult = serve.Result

// Admission outcomes (DESIGN.md §6.5): a request against a full bounded
// queue is shed at once with ErrOverload (Handle never blocks; retry with
// backoff to wait); requests racing shutdown observe ErrClosed; a request
// naming a GPU the server does not have is refused with ErrBadGPU, and one
// naming a key outside the table with ErrBadKey, before it can share a batch
// with anyone else's.
var (
	ErrOverload = serve.ErrOverload
	ErrClosed   = serve.ErrClosed
	ErrBadKey   = serve.ErrBadKey
	ErrBadGPU   = serve.ErrBadGPU
)

// Serve starts the serving engine on a built system. Close the returned
// server to stop its workers.
func Serve(sys *System, cfg ServeConfig) (*Server, error) { return serve.New(sys, cfg) }

// TelemetryRegistry collects counters, gauges and latency histograms from
// the core and serve layers (DESIGN.md §6.2). Share one registry
// across Config.Telemetry and ServeConfig.Telemetry to get a unified
// /metrics surface.
type TelemetryRegistry = telemetry.Registry

// NewTelemetryRegistry creates a registry with the given number of
// lock-free update shards (use the platform's GPU count for serving).
func NewTelemetryRegistry(shards int) *TelemetryRegistry { return telemetry.NewRegistry(shards) }

// BatchTrace is one coalesced batch's record (Server.Trace): how it formed,
// where its wall time went, and its modelled cost split by source tier.
type BatchTrace = flight.Batch

// TelemetryHandlerConfig selects the endpoints of NewTelemetryHandler:
// /metrics from its Registry; /debug/flight, /debug/timeline and POST
// /debug/flight/bundle from its Flight (a FlightBundleConfig over the
// recorder handed to Config.Flight and ServeConfig.Flight); /healthz and
// /readyz from its Health.
type TelemetryHandlerConfig = telemetry.HandlerConfig

// NewTelemetryHandler serves the full observability endpoint set.
func NewTelemetryHandler(cfg TelemetryHandlerConfig) http.Handler {
	return telemetry.NewHandler(cfg)
}

// FlightBundleConfig is the flight surface of TelemetryHandlerConfig.Flight:
// every record its Recorder holds as JSONL, the trace drawn from them, and
// diagnostic bundles written under Dir on demand (DESIGN.md §6.6).
type FlightBundleConfig = flight.BundleConfig

// Health is the liveness/readiness state behind /healthz and /readyz: flip
// SetReady(true) once the first cache build commits, SetReady(false) before
// draining a Server.
type Health = telemetry.Health

// NewHealth returns a not-ready Health.
func NewHealth() *Health { return telemetry.NewHealth() }

// FlightRecorder is the flight recorder (DESIGN.md §6.6): constant-memory
// rings of every served batch and of the control plane's refreshes, solves,
// drift checks and prefetch windows. Hand it to Config.Flight and
// ServeConfig.Flight; WriteTrace draws all of it.
type FlightRecorder = flight.Recorder

// WriteTrace draws the recorders' rings as Chrome trace-event JSON loadable
// in Perfetto or chrome://tracing — serve batch trees, per-source link
// flows, admission counters, and the control and prefetch tracks — timed
// from the earliest recorder's creation, and returns the span count.
func WriteTrace(w io.Writer, recs ...*FlightRecorder) (spans int, err error) {
	return flight.WriteTrace(w, recs...)
}

// NewFlightRecorder creates a recorder with one ring per serving worker
// (size it to every server it is handed to) plus the control ring, each
// holding the last depth records (4096 when depth < 1).
func NewFlightRecorder(workers, depth int) *FlightRecorder { return flight.NewRecorder(workers, depth) }

// ValidateTimeline parses a Chrome trace-event JSON stream and checks the
// invariants the exporter guarantees; it backs `ugache-trace
// -check-timeline` and the golden tests.
func ValidateTimeline(r io.Reader) (*TimelineValidation, error) { return timeline.Validate(r) }

// TimelineValidation summarizes a validated Chrome trace file.
type TimelineValidation = timeline.ValidationReport

// Rand is the repository's deterministic random generator.
type Rand = rng.Rand

// NewRand creates a deterministic generator from a seed.
func NewRand(seed uint64) *Rand { return rng.New(seed) }

// Zipf draws skewed keys; the synthetic workloads of §8.1.
type Zipf = workload.Zipf

// NewZipf creates a bounded Zipf sampler.
func NewZipf(n int64, alpha float64) (*Zipf, error) { return workload.NewZipf(n, alpha) }

// UniqueKeys deduplicates a key batch in first-seen order (the extractor
// operates on unique keys).
func UniqueKeys(keys []int64, scratch map[int64]struct{}) []int64 {
	return workload.Unique(keys, scratch)
}
