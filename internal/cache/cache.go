// Package cache holds the runtime cache state of UGache (paper §4, §7):
// per-GPU hash tables mapping cached keys to <GPU, Offset> source locations,
// the Filler that materializes a solved placement into simulated GPU
// memory, the foreground hotness sampler, and the background Refresher that
// periodically re-solves the policy and applies the diff in small batches
// with bounded foreground impact (§7.2, Fig. 17).
//
// Concurrency model: all placement state (hash tables, arenas, the
// placement itself) lives in an immutable snapshot behind an atomic
// pointer. Readers (Locate, GatherWith) load the snapshot once per
// call and never observe mutation; the Refresher builds the next snapshot
// off to the side — cloning the tables and arenas, applying the eviction/
// insertion diff in small batches — and publishes it with a single atomic
// swap. Any individual read therefore sees either the old or the new
// placement in full, never a torn mix.
package cache

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"ugache/internal/hashtable"
	"ugache/internal/memsim"
	"ugache/internal/platform"
	"ugache/internal/solver"
)

// RowSource supplies embedding rows from (simulated) host memory; both
// emb.Table and emb.MultiTable implement it. Implementations must be safe
// for concurrent ReadRow calls.
type RowSource interface {
	ReadRow(key int64, dst []byte) error
}

// GPUCache is one GPU's cache: a flat hash table for locate() plus the
// memory arena holding cached rows. Refreshes recycle evicted slots through
// a free list (the arena itself is a bump allocator). A GPUCache belongs to
// exactly one snapshot; once the snapshot is published it is never mutated.
type GPUCache struct {
	GPU        int
	Table      *hashtable.Table
	Arena      *memsim.Arena
	EntryBytes int
	freeSlots  []int64
}

// allocSlot returns a row slot, reusing freed ones first.
func (c *GPUCache) allocSlot() (int64, error) {
	if n := len(c.freeSlots); n > 0 {
		off := c.freeSlots[n-1]
		c.freeSlots = c.freeSlots[:n-1]
		return off, nil
	}
	return c.Arena.Alloc(int64(c.EntryBytes))
}

// evict removes a key and recycles its slot; it reports whether the key was
// cached.
func (c *GPUCache) evict(key int64) bool {
	loc, ok := c.Table.Lookup(key)
	if !ok {
		return false
	}
	c.Table.Delete(key)
	c.freeSlots = append(c.freeSlots, loc.Offset)
	return true
}

// insert caches a key, copying the row from src in functional mode.
func (c *GPUCache) insert(key int64, src RowSource, buf []byte) error {
	off, err := c.allocSlot()
	if err != nil {
		return err
	}
	if src != nil {
		if err := src.ReadRow(key, buf); err != nil {
			return err
		}
		if err := c.Arena.Write(off, buf); err != nil {
			return err
		}
	}
	return c.Table.Insert(key, hashtable.Location{GPU: int32(c.GPU), Offset: off})
}

// fill registers every entry of the placement's blocks stored on this GPU,
// in block order, each in a fresh slot; writeRows copies the bytes.
func (c *GPUCache) fill(pl *solver.Placement) error {
	for bi := range pl.Blocks {
		b := &pl.Blocks[bi]
		if !b.Store[c.GPU] {
			continue
		}
		for _, e := range pl.ByRank[b.Start:b.End] {
			if err := c.insert(int64(e), nil, nil); err != nil {
				return fmt.Errorf("cache: gpu %d: %w", c.GPU, err)
			}
		}
	}
	return nil
}

// writeRows copies every stored row from src into the slots fill laid out:
// the distinct stored rows, in block order, are split into GOMAXPROCS
// contiguous ranges whose goroutines read each row once and write it to
// every holder, so every slot has one writer. The first range's error wins.
func writeRows(caches []*GPUCache, pl *solver.Placement, src RowSource) error {
	eb := int64(pl.EntryBytes)
	// Block bi holds distinct rows [at[bi], at[bi+1]); its first rank sits
	// at byte offs[bi][g] on each GPU g storing it.
	at := make([]int64, len(pl.Blocks)+1)
	offs := make([][]int64, len(pl.Blocks))
	next := make([]int64, len(caches))
	for bi := range pl.Blocks {
		b := &pl.Blocks[bi]
		offs[bi], at[bi+1] = slices.Clone(next), at[bi]
		for g, stored := range b.Store {
			if stored {
				next[g] += (b.End - b.Start) * eb
				at[bi+1] = at[bi] + b.End - b.Start
			}
		}
	}
	rows := at[len(pl.Blocks)]
	workers := min(int64(runtime.GOMAXPROCS(0)), rows)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func(lo, hi int64) {
			defer wg.Done()
			buf := make([]byte, eb)
			for bi := range pl.Blocks {
				b := &pl.Blocks[bi]
				for i := max(lo, at[bi]); i < min(hi, at[bi+1]); i++ {
					r := b.Start + i - at[bi]
					if errs[w] = src.ReadRow(int64(pl.ByRank[r]), buf); errs[w] != nil {
						return
					}
					for g, stored := range b.Store {
						if stored {
							if errs[w] = caches[g].Arena.Write(offs[bi][g]+(r-b.Start)*eb, buf); errs[w] != nil {
								return
							}
						}
					}
				}
			}
		}(rows*w/workers, rows*(w+1)/workers)
	}
	wg.Wait()
	return cmp.Or(errs...)
}

// clone deep-copies the cache, pointing its arena into the given clone of
// the snapshot's space.
func (c *GPUCache) clone(arena *memsim.Arena) *GPUCache {
	return &GPUCache{
		GPU:        c.GPU,
		Table:      c.Table.Clone(),
		Arena:      arena,
		EntryBytes: c.EntryBytes,
		freeSlots:  append([]int64(nil), c.freeSlots...),
	}
}

// snapshot is one immutable view of the multi-GPU cache: the placement it
// materializes plus the per-GPU tables and arenas holding it.
type snapshot struct {
	placement *solver.Placement
	caches    []*GPUCache
	space     *memsim.Space
}

// clone deep-copies the snapshot so the Refresher can mutate it privately.
func (sn *snapshot) clone() *snapshot {
	cp := &snapshot{
		placement: sn.placement,
		caches:    make([]*GPUCache, len(sn.caches)),
		space:     sn.space.Clone(),
	}
	for g, c := range sn.caches {
		cp.caches[g] = c.clone(cp.space.GPUs[g])
	}
	return cp
}

// System is the multi-GPU cache state for one placement. It is safe for
// any number of concurrent readers; Refresh may run concurrently with them
// (concurrent Refreshes serialize among themselves).
type System struct {
	P          *platform.Platform
	EntryBytes int

	source RowSource // nil in size-only mode
	snap   atomic.Pointer[snapshot]
	// refreshMu serializes writers: Refresh clones the current snapshot,
	// mutates the clone, and publishes it; two concurrent refreshes must not
	// both clone the same base.
	refreshMu sync.Mutex
	// gatherPool recycles GatherScratch buffers for callers that use the
	// plain Gather entry point instead of carrying their own scratch.
	gatherPool sync.Pool
	// refreshMet, when set via SetTelemetry, receives each refresh report
	// as gauges (§7.2 impact timeline).
	refreshMet atomic.Pointer[refreshMetrics]
}

// Placement returns the currently published placement.
func (s *System) Placement() *solver.Placement { return s.snap.Load().placement }

// Caches returns the currently published per-GPU caches. The returned
// snapshot is immutable; a concurrent Refresh publishes new caches rather
// than mutating these.
func (s *System) Caches() []*GPUCache { return s.snap.Load().caches }

// Functional reports whether the system holds real bytes (a RowSource was
// attached at Fill time).
func (s *System) Functional() bool { return s.source != nil }

// FillOptions controls Fill.
type FillOptions struct {
	// CapacityEntries[g] sizes GPU g's arena; it must cover the
	// placement's usage.
	CapacityEntries []int64
	// Source, when non-nil, enables functional mode: rows are actually
	// copied into backed arenas so Gather can verify content.
	Source RowSource
}

// Fill materializes a placement: for every GPU, each stored block's entries
// are allocated in the arena and registered in the hash table (the Filler
// of §4). In functional mode writeRows then copies the bytes from the host.
func Fill(p *platform.Platform, pl *solver.Placement, opt FillOptions) (*System, error) {
	if p == nil || pl == nil {
		return nil, fmt.Errorf("cache: nil platform or placement")
	}
	if pl.NumGPUs != p.N {
		return nil, fmt.Errorf("cache: placement for %d GPUs on %d-GPU platform", pl.NumGPUs, p.N)
	}
	if len(opt.CapacityEntries) != p.N {
		return nil, fmt.Errorf("cache: %d capacities for %d GPUs", len(opt.CapacityEntries), p.N)
	}
	eb := pl.EntryBytes
	sys := &System{P: p, EntryBytes: eb, source: opt.Source}
	sn := &snapshot{placement: pl, caches: make([]*GPUCache, p.N), space: &memsim.Space{GPUs: make([]*memsim.Arena, p.N)}}
	arenaBytes := slices.Max(opt.CapacityEntries) * int64(eb)
	used := pl.CapacityUsed()
	for g := 0; g < p.N; g++ {
		if used[g] > opt.CapacityEntries[g] {
			return nil, fmt.Errorf("cache: gpu %d placement uses %d entries, capacity %d",
				g, used[g], opt.CapacityEntries[g])
		}
	}
	// Lay out every GPU side by side, each goroutine making (and zeroing)
	// its own arena: a GPU's blocks go in block order as before, so every
	// offset and table layout is the sequential fill's.
	errs := make([]error, p.N)
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for g := range sn.caches {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer func() { <-sem; wg.Done() }()
			a := memsim.NewArena(fmt.Sprintf("gpu%d", g), arenaBytes)
			if opt.Source != nil {
				if a, errs[g] = memsim.NewBackedArena(a.Name, arenaBytes); errs[g] != nil {
					return
				}
			}
			sn.space.GPUs[g] = a
			sn.caches[g] = &GPUCache{GPU: g, Table: hashtable.New(int(used[g]) + 16), Arena: a, EntryBytes: eb}
			errs[g] = sn.caches[g].fill(pl)
		}()
	}
	wg.Wait()
	if err := cmp.Or(errs...); err != nil {
		return nil, err
	}
	if opt.Source != nil {
		if err := writeRows(sn.caches, pl, opt.Source); err != nil {
			return nil, fmt.Errorf("cache: %w", err)
		}
	}
	sys.snap.Store(sn)
	return sys, nil
}

// locate resolves where GPU dst finds a key within one snapshot.
func (sn *snapshot) locate(p *platform.Platform, dst int, key int64) (src platform.SourceID, loc hashtable.Location, err error) {
	if dst < 0 || dst >= p.N {
		return 0, loc, fmt.Errorf("cache: bad gpu %d", dst)
	}
	if key < 0 || key >= sn.placement.NumEntries() {
		return 0, loc, fmt.Errorf("cache: key %d out of range", key)
	}
	src = sn.placement.SourceOf(dst, key)
	// Host and the cluster's network tier both resolve outside the GPU
	// caches: the row is read from the backing source (on a cluster the
	// owning machine's host shard holds the same immutable bytes; the wire
	// move is costed by the extraction model, not the functional path).
	if src == p.Host() || (p.HasNetwork() && src == p.Network()) {
		return src, loc, nil
	}
	l, ok := sn.caches[src].Table.Lookup(key)
	if !ok {
		return 0, loc, fmt.Errorf("cache: placement says gpu %d holds key %d but the hashtable disagrees", src, key)
	}
	return src, l, nil
}

// Locate resolves where GPU dst finds a key: its access-arrangement source
// and, when that source is a GPU, the concrete <GPU, Offset> location from
// the owner's hash table (the locate() step of the extract function, §3.2).
func (s *System) Locate(dst int, key int64) (src platform.SourceID, loc hashtable.Location, err error) {
	return s.snap.Load().locate(s.P, dst, key)
}
