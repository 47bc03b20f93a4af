package cache

import (
	"fmt"

	"ugache/internal/hashtable"
	"ugache/internal/platform"
)

// GatherScratch holds the reusable buffers of one Gather call: the
// per-source key groups, the destination row index of every grouped key,
// and the bulk-probe location/found slices. Reusing one scratch per worker
// (or recycling through the System's internal pool) makes the steady-state
// functional gather allocation-free.
//
// A GatherScratch is owned by one goroutine at a time.
type GatherScratch struct {
	keys  [][]int64 // keys[src]: keys to probe on source GPU src
	rows  [][]int32 // rows[src]: destination row index per grouped key
	locs  []hashtable.Location
	found []bool
}

// NewGatherScratch returns an empty scratch; buffers grow on first use.
func NewGatherScratch() *GatherScratch { return &GatherScratch{} }

// gatherGroupMin is the batch size below which Gather resolves keys one
// locate at a time instead of grouping per owner for a bulk probe.
const gatherGroupMin = 8

// reset prepares the per-source groups for n source GPUs.
func (sc *GatherScratch) reset(n int) {
	if cap(sc.keys) < n {
		sc.keys = make([][]int64, n)
		sc.rows = make([][]int32, n)
	}
	sc.keys = sc.keys[:n]
	sc.rows = sc.rows[:n]
	for i := range sc.keys {
		sc.keys[i] = sc.keys[i][:0]
		sc.rows[i] = sc.rows[i][:0]
	}
}

// probeBuffers returns scratch-backed locs/found slices of length n.
func (sc *GatherScratch) probeBuffers(n int) ([]hashtable.Location, []bool) {
	if cap(sc.locs) < n {
		sc.locs = make([]hashtable.Location, n)
		sc.found = make([]bool, n)
	}
	return sc.locs[:n], sc.found[:n]
}

// Gather functionally extracts keys for GPU dst into out (len(keys) rows
// of EntryBytes): cached rows are peer-read from the owning GPU's arena,
// misses fall back to the host source. Requires functional mode. The whole
// gather resolves against a single snapshot, so concurrent refreshes never
// produce a torn result. Scratch buffers come from sc; nil recycles them
// through an internal pool. The gather runs in two passes over the snapshot:
// first every key is classified by the placement's access arrangement —
// host keys are read from the source immediately, GPU keys are grouped per
// owning GPU — then each owner's group is resolved with one batched hash
// probe (hashtable.BulkLookup, the locate() step of §3.2) and peer-read
// into the caller's buffer. out is caller-owned; the scratch retains no
// reference to it.
func (s *System) Gather(dst int, keys []int64, out []byte, sc *GatherScratch) error {
	if s.source == nil {
		return fmt.Errorf("cache: Gather requires functional mode (FillOptions.Source)")
	}
	if len(out) < len(keys)*s.EntryBytes {
		return fmt.Errorf("cache: output buffer %d too small for %d rows", len(out), len(keys))
	}
	if dst < 0 || dst >= s.P.N {
		return fmt.Errorf("cache: bad gpu %d", dst)
	}
	// Tiny batches are not worth grouping: a single locate per key beats
	// the per-GPU group reset plus bulk-probe setup, and keeps the
	// one-key Lookup latency at the ungrouped cost.
	if len(keys) <= gatherGroupMin {
		sn := s.snap.Load()
		eb := s.EntryBytes
		for i, key := range keys {
			src, loc, err := sn.locate(s.P, dst, key)
			if err != nil {
				return err
			}
			row := out[i*eb : (i+1)*eb]
			if src == s.P.Host() || (s.P.HasNetwork() && src == s.P.Network()) {
				if err := s.source.ReadRow(key, row); err != nil {
					return err
				}
				continue
			}
			if err := sn.Caches[src].Arena.Read(loc.Offset, row); err != nil {
				return err
			}
		}
		return nil
	}
	if sc == nil {
		pooled, _ := s.gatherPool.Get().(*GatherScratch)
		if pooled == nil {
			pooled = NewGatherScratch()
		}
		defer s.gatherPool.Put(pooled)
		sc = pooled
	}
	sn := s.snap.Load()
	pl := sn.Extractor.Pl
	n := pl.NumEntries()
	eb := s.EntryBytes
	host := s.P.Host()
	network := platform.SourceID(-1)
	if s.P.HasNetwork() {
		network = s.P.Network()
	}

	// Pass 1: classify by source. Host (and, on clusters, network-tier)
	// rows are served straight from the backing source; GPU rows are
	// grouped for the batched probe.
	sc.reset(len(sn.Caches))
	for i, key := range keys {
		if key < 0 || key >= n {
			return fmt.Errorf("cache: key %d out of range", key)
		}
		src := pl.SourceOf(dst, key)
		if src == host || src == network {
			if err := s.source.ReadRow(key, out[i*eb:(i+1)*eb]); err != nil {
				return err
			}
			continue
		}
		sc.keys[src] = append(sc.keys[src], key)
		sc.rows[src] = append(sc.rows[src], int32(i))
	}

	// Pass 2: one bulk probe per owning GPU, then peer-read each row.
	for src := range sc.keys {
		group := sc.keys[src]
		if len(group) == 0 {
			continue
		}
		locs, found := sc.probeBuffers(len(group))
		sn.Caches[src].Table.BulkLookup(group, locs, found)
		for i, ok := range found {
			if !ok {
				return fmt.Errorf("cache: placement says gpu %d holds key %d but the hashtable disagrees", src, group[i])
			}
			row := int(sc.rows[src][i])
			if err := sn.Caches[src].Arena.Read(locs[i].Offset, out[row*eb:(row+1)*eb]); err != nil {
				return err
			}
		}
	}
	return nil
}

// GatherWith gathers as Gather does. It goes once benchmark/ stops calling
// it.
func (s *System) GatherWith(dst int, keys []int64, out []byte, sc *GatherScratch) error {
	return s.Gather(dst, keys, out, sc)
}
