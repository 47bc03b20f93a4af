// Package cache holds the runtime cache state of UGache (paper §4, §7):
// per-GPU hash tables mapping each cached key to its row's offset in that
// GPU's arena (the placement names the source GPU; together they are the
// paper's <GPU, offset>),
// the Filler that materializes a solved placement into simulated GPU
// memory, the foreground hotness sampler, and the background Refresher that
// periodically re-solves the policy and applies the diff in small batches
// with bounded foreground impact (§7.2, Fig. 17).
//
// Concurrency model: a placement and everything derived from it (its
// extractor, the hotness it was solved against, its version, every GPU's
// hash table and arena) is one immutable Snapshot behind one atomic pointer.
// Readers (Gather, core's extraction and model queries) load the snapshot
// once per call and never observe mutation; Refresh builds the next snapshot
// off to the side — cloning the tables and arenas, applying the eviction/
// insertion diff in small batches — and publishes it with a single atomic
// swap under the one writer lock. Any individual read therefore sees either
// the old or the new placement in full, never a torn mix.
package cache

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"ugache/internal/extract"
	"ugache/internal/hashtable"
	"ugache/internal/memsim"
	"ugache/internal/par"
	"ugache/internal/platform"
	"ugache/internal/solver"
	"ugache/internal/workload"
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
	return c.Table.Insert(key, hashtable.Location{Offset: off})
}

// rowsPerChunk is how many distinct rows Fill hands a worker at a time:
// small enough that the hot rows' extra holders and whatever else runs
// beside the copy even out over the workers, large enough that a claim
// (one atomic add) is nothing next to generating the rows.
const rowsPerChunk = 1024

// rowChunks cuts the distinct stored rows of the placement, in block order,
// into chunks of rowsPerChunk and returns how many there are and the
// function that copies chunk c from src into the slots Fill laid out (GPU
// g's stored blocks, in block order, from offset 0). It reads each row once,
// straight into its first holder's slot, and copies it from there to the
// other holders, so every slot has one writer.
func rowChunks(caches []*GPUCache, pl *solver.Placement, src RowSource) (int, func(c int) error) {
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
	return int((rows + rowsPerChunk - 1) / rowsPerChunk), func(c int) error {
		lo, hi := int64(c)*rowsPerChunk, min(int64(c+1)*rowsPerChunk, rows)
		// The first block holding row lo; empty blocks are skipped.
		for bi := sort.Search(len(pl.Blocks), func(bi int) bool { return at[bi+1] > lo }); bi < len(pl.Blocks) && at[bi] < hi; bi++ {
			b := &pl.Blocks[bi]
			first := slices.Index(b.Store, true)
			for i := max(lo, at[bi]); i < min(hi, at[bi+1]); i++ {
				r := b.Start + i - at[bi]
				row, err := caches[first].Arena.Slot(offs[bi][first]+(r-b.Start)*eb, eb)
				if err == nil {
					err = src.ReadRow(int64(pl.ByRank[r]), row)
				}
				for g := first + 1; err == nil && g < len(b.Store); g++ {
					if b.Store[g] {
						err = caches[g].Arena.Write(offs[bi][g]+(r-b.Start)*eb, row)
					}
				}
				if err != nil {
					return fmt.Errorf("cache: %w", err)
				}
			}
		}
		return nil
	}
}

// clone deep-copies the cache, arena included.
func (c *GPUCache) clone() *GPUCache {
	return &GPUCache{
		Table:      c.Table.Clone(),
		Arena:      c.Arena.Clone(),
		EntryBytes: c.EntryBytes,
		freeSlots:  append([]int64(nil), c.freeSlots...),
	}
}

// Snapshot is one published placement and everything derived from it. It is
// immutable once published, so what one load returns is consistent: every
// key the placement stores on a GPU is in that GPU's table, at a slot of its
// arena holding the row.
type Snapshot struct {
	// Extractor plans batches on the placement; its Pl is the placement,
	// held nowhere else.
	Extractor *extract.Extractor
	// Hotness is what the placement was solved against (nil: none given).
	Hotness workload.Hotness
	// Version is 1 from Fill and one more from every Refresh (the staleness
	// clock of staged rows, DESIGN.md §6.4).
	Version uint64
	Caches  []*GPUCache // indexed by GPU
}

// System is the multi-GPU cache state for one placement. It is safe for
// any number of concurrent readers; Refresh may run concurrently with them
// (concurrent Refreshes serialize among themselves).
type System struct {
	P          *platform.Platform
	EntryBytes int

	source RowSource // nil in size-only mode
	snap   atomic.Pointer[Snapshot]
	// refreshMu is the one writer lock: Refresh clones the current snapshot,
	// mutates the clone, and publishes it; two concurrent refreshes must not
	// both clone the same base.
	refreshMu sync.Mutex
	// gatherPool recycles GatherScratch buffers for callers that use the
	// plain Gather entry point instead of carrying their own scratch.
	gatherPool sync.Pool
}

// Snapshot returns the published snapshot. Load it once per operation: two
// loads may straddle a Refresh.
func (s *System) Snapshot() *Snapshot { return s.snap.Load() }

// Caches returns the currently published per-GPU caches. The returned
// snapshot is immutable; a concurrent Refresh publishes new caches rather
// than mutating these.
func (s *System) Caches() []*GPUCache { return s.snap.Load().Caches }

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
	// Arenas, in functional mode, are the backed arenas to fill — one per
	// GPU, each max(CapacityEntries)·EntryBytes bytes with nothing
	// allocated, as NewArenas makes them — so that a caller can make them
	// while it solves. Nil makes them here.
	Arenas []*memsim.Arena
	// Hotness is what the placement was solved against; the snapshot keeps
	// it for readers of the model (nil: none).
	Hotness workload.Hotness
	// Owned is the extractor's shard-ownership predicate
	// (extract.Extractor.Owned); every refreshed extractor inherits it.
	Owned func(key int64) bool
}

// NewArenas makes one backed arena of the given size per GPU, side by side,
// for FillOptions.Arenas. Making one faults in and zeroes every byte of it.
func NewArenas(gpus int, bytes int64) ([]*memsim.Arena, error) {
	arenas := make([]*memsim.Arena, gpus)
	err := par.Each(gpus, gpus, func(_, g int) (err error) {
		arenas[g], err = memsim.NewBackedArena(fmt.Sprintf("gpu%d", g), bytes)
		return err
	})
	if err != nil {
		return nil, err
	}
	return arenas, nil
}

// fillArenas returns the arenas a fill of the given size uses: the handed
// ones, checked, or new ones — backed in functional mode, size-only else.
func fillArenas(gpus int, bytes int64, opt *FillOptions) ([]*memsim.Arena, error) {
	if opt.Source == nil {
		arenas := make([]*memsim.Arena, gpus)
		for g := range arenas {
			arenas[g] = memsim.NewArena(fmt.Sprintf("gpu%d", g), bytes)
		}
		return arenas, nil
	}
	if opt.Arenas == nil {
		return NewArenas(gpus, bytes)
	}
	if len(opt.Arenas) != gpus {
		return nil, fmt.Errorf("cache: %d arenas for %d GPUs", len(opt.Arenas), gpus)
	}
	for g, a := range opt.Arenas {
		if a == nil || !a.Backed() || a.Capacity != bytes || a.Free() != bytes {
			return nil, fmt.Errorf("cache: gpu %d: arena is not an empty backed arena of %d bytes", g, bytes)
		}
	}
	return opt.Arenas, nil
}

// Fill materializes a placement (the Filler of §4): each GPU's stored
// blocks take consecutive slots of its arena in block order and are
// registered in its hash table, which is where a slot-by-slot fill puts
// them, as nothing is freed during a fill. So each GPU's used range is
// allocated at once, and the tables are laid out beside the copy of the
// rows (rowChunks, in functional mode), which computes each slot's offset.
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
	eb := int64(pl.EntryBytes)
	used := pl.CapacityUsed()
	for g := 0; g < p.N; g++ {
		if used[g] > opt.CapacityEntries[g] {
			return nil, fmt.Errorf("cache: gpu %d placement uses %d entries, capacity %d",
				g, used[g], opt.CapacityEntries[g])
		}
	}
	ex, err := extract.New(p, pl)
	if err != nil {
		return nil, err
	}
	ex.Owned = opt.Owned
	arenas, err := fillArenas(p.N, slices.Max(opt.CapacityEntries)*eb, &opt)
	if err != nil {
		return nil, err
	}
	sn := &Snapshot{Extractor: ex, Hotness: opt.Hotness, Version: 1, Caches: make([]*GPUCache, p.N)}
	for g, a := range arenas {
		if _, err := a.Alloc(used[g] * eb); err != nil {
			return nil, fmt.Errorf("cache: gpu %d: %w", g, err)
		}
		sn.Caches[g] = &GPUCache{Arena: a, EntryBytes: int(eb)}
	}
	// Index g < N lays out GPU g's table and the rest copy a chunk of rows
	// each, so a layout error beats a row error.
	chunks, writeChunk := 0, func(int) error { return nil }
	if opt.Source != nil {
		chunks, writeChunk = rowChunks(sn.Caches, pl, opt.Source)
	}
	err = par.Each(p.N+chunks, par.Workers(p.N+chunks, 1), func(_, i int) error {
		if i < p.N {
			var err error
			sn.Caches[i].Table, err = layoutTable(pl, i, used[i])
			return err
		}
		return writeChunk(i - p.N)
	})
	if err != nil {
		return nil, err
	}
	sys := &System{P: p, EntryBytes: int(eb), source: opt.Source}
	sys.snap.Store(sn)
	return sys, nil
}

// layoutTable registers the entries of the placement's blocks stored on GPU
// g, of which there are `entries`, in a new table: in block order, at
// consecutive slots from offset 0.
func layoutTable(pl *solver.Placement, g int, entries int64) (*hashtable.Table, error) {
	t := hashtable.New(int(entries) + 16)
	off := int64(0)
	for bi := range pl.Blocks {
		b := &pl.Blocks[bi]
		if !b.Store[g] {
			continue
		}
		for _, e := range pl.ByRank[b.Start:b.End] {
			if err := t.Insert(int64(e), hashtable.Location{Offset: off}); err != nil {
				return nil, fmt.Errorf("cache: gpu %d: %w", g, err)
			}
			off += int64(pl.EntryBytes)
		}
	}
	return t, nil
}

// locate resolves where GPU dst finds a key within one snapshot.
func (sn *Snapshot) locate(p *platform.Platform, dst int, key int64) (src platform.SourceID, loc hashtable.Location, err error) {
	if dst < 0 || dst >= p.N {
		return 0, loc, fmt.Errorf("cache: bad gpu %d", dst)
	}
	pl := sn.Extractor.Pl
	if key < 0 || key >= pl.NumEntries() {
		return 0, loc, fmt.Errorf("cache: key %d out of range", key)
	}
	src = pl.SourceOf(dst, key)
	// Host and the cluster's network tier both resolve outside the GPU
	// caches: the row is read from the backing source (on a cluster the
	// owning machine's host shard holds the same immutable bytes; the wire
	// move is costed by the extraction model, not the functional path).
	if src == p.Host() || (p.HasNetwork() && src == p.Network()) {
		return src, loc, nil
	}
	l, ok := sn.Caches[src].Table.Lookup(key)
	if !ok {
		return 0, loc, fmt.Errorf("cache: placement says gpu %d holds key %d but the hashtable disagrees", src, key)
	}
	return src, l, nil
}
