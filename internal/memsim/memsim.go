// Package memsim simulates the unified GPU/host address space of a modern
// multi-GPU platform (paper §3.2, "peer-based access"): per-GPU memory
// arenas with capacity accounting plus optional real backing bytes, so that
// functional tests can verify zero-copy peer reads byte-for-byte while the
// large timing experiments track only allocation sizes.
package memsim

import (
	"bytes"
	"errors"
	"fmt"
)

// errOutOfMemory is returned when an allocation exceeds the arena capacity;
// it corresponds to the OOM conditions §8.1 works around by shrinking batch
// sizes.
var errOutOfMemory = errors.New("memsim: out of device memory")

// Arena is one device's memory: a bump allocator with optional backing.
type Arena struct {
	Name     string
	Capacity int64
	used     int64
	data     []byte // nil when the arena only tracks sizes
}

// NewArena creates a size-tracking arena.
func NewArena(name string, capacity int64) *Arena {
	return &Arena{Name: name, Capacity: capacity}
}

// NewBackedArena creates an arena with real bytes for functional tests.
func NewBackedArena(name string, capacity int64) (*Arena, error) {
	if capacity > 1<<31 {
		return nil, fmt.Errorf("memsim: backed arena %q too large (%d bytes)", name, capacity)
	}
	return &Arena{Name: name, Capacity: capacity, data: make([]byte, capacity)}, nil
}

// Backed reports whether the arena holds real bytes.
func (a *Arena) Backed() bool { return a.data != nil }

// Free returns the unallocated byte count.
func (a *Arena) Free() int64 { return a.Capacity - a.used }

// Alloc reserves n bytes and returns their offset.
func (a *Arena) Alloc(n int64) (int64, error) {
	if n < 0 {
		return 0, fmt.Errorf("memsim: negative allocation %d", n)
	}
	if a.used+n > a.Capacity {
		return 0, fmt.Errorf("%w: %q needs %d, free %d", errOutOfMemory, a.Name, n, a.Free())
	}
	off := a.used
	a.used += n
	return off, nil
}

// Clone returns a deep copy of the arena. The background Refresher applies
// cache updates to a clone so concurrent readers keep a consistent view of
// the published arena until the new snapshot is swapped in (§7.2).
func (a *Arena) Clone() *Arena {
	cp := *a
	cp.data = bytes.Clone(a.data)
	return &cp
}

// Write copies b to the given offset. It is a no-op (after bounds checking)
// on unbacked arenas.
func (a *Arena) Write(off int64, b []byte) error {
	if off < 0 || off+int64(len(b)) > a.used {
		return fmt.Errorf("memsim: write [%d, %d) outside allocated %d bytes of %q",
			off, off+int64(len(b)), a.used, a.Name)
	}
	if a.data != nil {
		copy(a.data[off:], b)
	}
	return nil
}

// Slot returns the n bytes at off of a backed arena, bounds-checked like
// Write: the arena's own bytes, to fill only before readers can see them.
func (a *Arena) Slot(off, n int64) ([]byte, error) {
	if off < 0 || n < 0 || off+n > a.used {
		return nil, fmt.Errorf("memsim: slot [%d, %d) outside allocated %d bytes of %q",
			off, off+n, a.used, a.Name)
	}
	if a.data == nil {
		return nil, fmt.Errorf("memsim: arena %q is not backed", a.Name)
	}
	return a.data[off : off+n : off+n], nil
}

// Read copies from the given offset into b. Reading from an unbacked arena
// is an error: timing-only runs must not depend on content.
func (a *Arena) Read(off int64, b []byte) error {
	s, err := a.Slot(off, int64(len(b)))
	copy(b, s)
	return err
}
