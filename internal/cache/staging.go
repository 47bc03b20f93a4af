package cache

import (
	"fmt"
	"sync"
)

// StagingArena is the transient GPU-side landing zone of the lookahead
// prefetch pipeline (DESIGN.md §6.4): the serve layer's prefetch worker
// extracts a future batch's would-be misses ahead of time and commits the
// rows here, so that when the batch actually flushes those keys are local
// staged hits instead of remote/host reads on the critical path.
//
// Unlike the snapshot arenas managed by Fill/Refresh, the staging arena is
// deliberately *not* part of the placement: it is a fixed-capacity ring of
// row slots keyed by embedding key, stamped with the serve-side batch
// sequence and the placement version the row was gathered under. Those two
// stamps carry the bounded-staleness contract:
//
//   - a row gathered under the current placement version is servable for as
//     long as it stays resident (its content is current by construction);
//   - a row gathered under an outgoing snapshot (a Refresh has swapped the
//     placement since) is servable only while its batch-staleness
//     (now - commit stamp) is within the caller's stale limit S. With S=0,
//     staged rows die with their snapshot.
//
// Concurrency: commits and evictions take the write lock; Consume copies
// row bytes out under the read lock, so a concurrent Commit recycling a
// slot (the "free" of this arena) can never be observed mid-overwrite and a
// consumed row is always the complete row some commit wrote — the
// staging-arena lifecycle invariant the -race tests pin.
type StagingArena struct {
	mu         sync.RWMutex
	entryBytes int
	keys       []int64  // per slot; meaningful only when live
	stamps     []int64  // batch sequence at commit
	versions   []uint64 // placement version at commit
	live       []bool
	data       []byte          // slots*entryBytes backing rows; nil in timing-only mode
	idx        map[int64]int32 // key -> slot, maintained under mu
	clock      int             // ring eviction cursor
}

// NewStaging creates a staging arena with the given slot count. With backed
// set the arena holds real row bytes (functional mode); otherwise it only
// classifies residency (timing-only mode).
func NewStaging(slots, entryBytes int, backed bool) (*StagingArena, error) {
	if slots <= 0 {
		return nil, fmt.Errorf("cache: staging arena needs positive capacity, got %d", slots)
	}
	if entryBytes <= 0 {
		return nil, fmt.Errorf("cache: staging arena needs positive entry bytes, got %d", entryBytes)
	}
	if backed && int64(slots)*int64(entryBytes) > 1<<31 {
		return nil, fmt.Errorf("cache: backed staging arena too large (%d slots x %d B)", slots, entryBytes)
	}
	a := &StagingArena{
		entryBytes: entryBytes,
		keys:       make([]int64, slots),
		stamps:     make([]int64, slots),
		versions:   make([]uint64, slots),
		live:       make([]bool, slots),
		idx:        make(map[int64]int32, slots),
	}
	if backed {
		a.data = make([]byte, slots*entryBytes)
	}
	return a, nil
}

// Capacity returns the slot count.
func (a *StagingArena) Capacity() int { return len(a.keys) }

// Len returns the number of resident rows.
func (a *StagingArena) Len() int {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return len(a.idx)
}

// servable reports whether slot s may be consumed at batch `now` under the
// bounded-staleness contract. Caller holds at least the read lock.
func (a *StagingArena) servable(s int32, now, staleLimit int64, version uint64) bool {
	if !a.live[s] {
		return false
	}
	if a.versions[s] == version {
		return true
	}
	// Version mismatch: S=0 disallows stale serving outright (the row died
	// with its snapshot, whatever its age), otherwise the row is good for up
	// to S batches past its commit.
	return staleLimit > 0 && now-a.stamps[s] <= staleLimit
}

// Resident reports whether key is staged and still servable at batch `now`
// under stale limit S and the given placement version — the prefetch
// worker's dedup check against rows already in flight to the arena.
func (a *StagingArena) Resident(key int64, now, staleLimit int64, version uint64) bool {
	a.mu.RLock()
	defer a.mu.RUnlock()
	s, ok := a.idx[key]
	return ok && a.keys[s] == key && a.servable(s, now, staleLimit, version)
}

// Commit stages rows for keys, stamped with the serve batch sequence and
// the placement version they were gathered under. rows holds
// len(keys)*entryBytes bytes in key order (nil in timing-only mode). A key
// already resident is refreshed in place; new keys recycle ring slots,
// displacing whatever lived there (that displacement is the arena's only
// "free", and it happens under the write lock — see the type comment).
func (a *StagingArena) Commit(keys []int64, rows []byte, version uint64, stamp int64) error {
	if a.data != nil && rows != nil && len(rows) < len(keys)*a.entryBytes {
		return fmt.Errorf("cache: staging commit rows %d B for %d keys of %d B", len(rows), len(keys), a.entryBytes)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	for i, k := range keys {
		s, ok := a.idx[k]
		if !ok {
			s = int32(a.clock)
			a.clock = (a.clock + 1) % len(a.keys)
			if a.live[s] {
				delete(a.idx, a.keys[s])
			}
			a.idx[k] = s
			a.keys[s] = k
			a.live[s] = true
		}
		a.stamps[s] = stamp
		a.versions[s] = version
		if a.data != nil && rows != nil {
			copy(a.data[int(s)*a.entryBytes:(int(s)+1)*a.entryBytes], rows[i*a.entryBytes:(i+1)*a.entryBytes])
		}
	}
	return nil
}

// Consume classifies a flush's unique keys against the arena at batch `now`:
// hit[i] is set for every key servable under stale limit S and the given
// placement version, and — when rows is non-nil — that key's row is copied
// into rows[i*entryBytes:]. It returns the hit count, the count of hits
// served stale (committed under an outgoing placement version), and the
// maximum batch-staleness among those stale hits.
//
// The whole batch resolves under one read lock, so a racing Commit either
// precedes the batch entirely or follows it — no key is classified against
// a half-overwritten slot.
func (a *StagingArena) Consume(keys []int64, now, staleLimit int64, version uint64, rows []byte, hit []bool) (hits, staleHits int, maxStale int64) {
	eb := a.entryBytes
	a.mu.RLock()
	defer a.mu.RUnlock()
	for i, k := range keys {
		hit[i] = false
		s, ok := a.idx[k]
		if !ok || a.keys[s] != k || !a.servable(s, now, staleLimit, version) {
			continue
		}
		hit[i] = true
		hits++
		if a.versions[s] != version {
			staleHits++
			if st := now - a.stamps[s]; st > maxStale {
				maxStale = st
			}
		}
		if rows != nil && a.data != nil {
			copy(rows[i*eb:(i+1)*eb], a.data[int(s)*eb:(int(s)+1)*eb])
		}
	}
	return hits, staleHits, maxStale
}
