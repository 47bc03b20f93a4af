// Package hashtable implements the flat, open-addressing hash table that
// coordinates UGache's Extractor and Solver (paper §4). The paper's table
// maps each cached embedding key to its source location <GPU, offset>; here
// each GPU owns one table, which maps a key to the byte offset of its row in
// that GPU's cache arena, and the placement's access arrangement names the
// GPU (solver.Placement.SourceOf). The layout mirrors a GPU hash table — two
// flat arrays, linear probing, power-of-two capacity — because the
// Extractor's locate() step (paper §3.2) does exactly this lookup per key on
// device.
//
// The Refresher deletes and reinserts entries in place (paper §7.2), so the
// table supports tombstone deletion.
package hashtable

import (
	"fmt"
	"math/bits"
	"slices"
)

// Location is where a cached entry sits in the arena of the GPU whose table
// holds it: the byte offset of its row.
type Location struct {
	Offset int64
}

const (
	emptySlot     = -1 // key sentinel: never a valid embedding key
	tombstoneSlot = -2
)

// Table maps int64 keys (>= 0) to Locations.
type Table struct {
	keys  []int64
	locs  []Location
	mask  uint64
	used  int // live entries
	dirty int // live + tombstones
}

// slotsFor returns the power-of-two slot count for a table holding capacity
// entries at a load factor of at most 0.75. The arithmetic is carried out in
// uint64 so huge capacities cannot overflow int (capacity*4 wraps negative
// for capacity > MaxInt64/4); the result is clamped to the largest
// addressable power of two.
func slotsFor(capacity int) int {
	if capacity < 1 {
		capacity = 1
	}
	need := uint64(capacity) + (uint64(capacity)+2)/3 // ceil(capacity * 4/3), overflow-free
	shift := bits.Len64(need)
	if shift > 62 {
		shift = 62 // 1<<63 would wrap negative in int
	}
	n := 1 << shift
	if n < 8 {
		n = 8
	}
	return n
}

// New creates a table that can hold at least capacity entries at a load
// factor of at most 0.75.
func New(capacity int) *Table {
	n := slotsFor(capacity)
	t := &Table{
		keys: make([]int64, n),
		locs: make([]Location, n),
		mask: uint64(n - 1),
	}
	for i := range t.keys {
		t.keys[i] = emptySlot
	}
	return t
}

// Len returns the number of live entries.
func (t *Table) Len() int { return t.used }

func hash(key int64) uint64 {
	x := uint64(key)
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// Insert adds or overwrites a key. It returns an error for negative keys
// (reserved for sentinels).
func (t *Table) Insert(key int64, loc Location) error {
	if key < 0 {
		return fmt.Errorf("hashtable: negative key %d", key)
	}
	if t.dirty*4 >= len(t.keys)*3 {
		t.grow()
	}
	i := hash(key) & t.mask
	firstTomb := -1
	for {
		switch t.keys[i] {
		case emptySlot:
			if firstTomb >= 0 {
				i = uint64(firstTomb)
			} else {
				t.dirty++
			}
			t.keys[i] = key
			t.locs[i] = loc
			t.used++
			return nil
		case tombstoneSlot:
			if firstTomb < 0 {
				firstTomb = int(i)
			}
		case key:
			t.locs[i] = loc
			return nil
		}
		i = (i + 1) & t.mask
	}
}

// Lookup returns the location for key.
func (t *Table) Lookup(key int64) (Location, bool) {
	if key < 0 {
		return Location{}, false
	}
	i := hash(key) & t.mask
	for {
		switch t.keys[i] {
		case emptySlot:
			return Location{}, false
		case key:
			return t.locs[i], true
		}
		i = (i + 1) & t.mask
	}
}

// Delete removes key, returning whether it was present.
func (t *Table) Delete(key int64) bool {
	if key < 0 {
		return false
	}
	i := hash(key) & t.mask
	for {
		switch t.keys[i] {
		case emptySlot:
			return false
		case key:
			t.keys[i] = tombstoneSlot
			t.used--
			return true
		}
		i = (i + 1) & t.mask
	}
}

// Range calls fn for every live entry until fn returns false. Iteration
// order is unspecified but deterministic for a given insertion history.
func (t *Table) Range(fn func(key int64, loc Location) bool) {
	for i, k := range t.keys {
		if k >= 0 {
			if !fn(k, t.locs[i]) {
				return
			}
		}
	}
}

// Clone returns a deep copy of the table. The background Refresher mutates
// a clone while concurrent readers keep probing the published table.
func (t *Table) Clone() *Table {
	return &Table{
		keys: slices.Clone(t.keys),
		locs: slices.Clone(t.locs),
		mask: t.mask, used: t.used, dirty: t.dirty,
	}
}

func (t *Table) grow() {
	old := *t
	n := len(t.keys) * 2
	// If most dirt is tombstones, rebuild at the same size instead.
	if t.used*2 < t.dirty {
		n = len(t.keys)
	}
	t.keys = make([]int64, n)
	t.locs = make([]Location, n)
	t.mask = uint64(n - 1)
	t.used = 0
	t.dirty = 0
	for i := range t.keys {
		t.keys[i] = emptySlot
	}
	for i, k := range old.keys {
		if k >= 0 {
			// Insert cannot fail for keys already validated, and cannot
			// re-grow because the new table has room for all live entries.
			_ = t.Insert(k, old.locs[i])
		}
	}
}

// BulkLookup resolves many keys at once, writing found[i] and locs[i] per
// key; it returns the number found. Duplicate keys are resolved
// independently (each occurrence gets the same answer), and negative keys
// are simply not found, mirroring Lookup. The three slices must have equal
// length: a mismatch panics rather than silently truncating, because a
// short locs/found slice on the hot path means a caller-side sizing bug.
//
// This is the batched probe loop of the extract function's locate() step
// (§3.2): the table arrays and mask are hoisted out of the per-key loop so
// the probe runs over locals instead of re-loading the table header per key.
func (t *Table) BulkLookup(keys []int64, locs []Location, found []bool) int {
	if len(locs) != len(keys) || len(found) != len(keys) {
		panic(fmt.Sprintf("hashtable: BulkLookup slice lengths differ: %d keys, %d locs, %d found",
			len(keys), len(locs), len(found)))
	}
	tkeys, tlocs, mask := t.keys, t.locs, t.mask
	n := 0
	for i, k := range keys {
		if k < 0 {
			locs[i] = Location{}
			found[i] = false
			continue
		}
		j := hash(k) & mask
		for {
			switch tkeys[j] {
			case k:
				locs[i] = tlocs[j]
				found[i] = true
				n++
			case emptySlot:
				locs[i] = Location{}
				found[i] = false
			default:
				j = (j + 1) & mask
				continue
			}
			break
		}
	}
	return n
}
