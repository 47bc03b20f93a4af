// Package emb implements embedding tables: the N×D matrices that map sparse
// keys to dense vectors (paper §2, Figure 1). Tables live in (simulated)
// host memory; the cache system copies rows into simulated GPU memory.
//
// Two storage modes are supported. Materialized tables hold real bytes and
// are used by functional tests and examples, where extracted vectors are
// checked against table rows. Procedural tables generate rows
// deterministically from (seed, key) on demand, so the large scaled datasets
// (hundreds of millions of virtual entries) never need backing storage; the
// timing pipeline only needs entry *sizes*, and any row that is read decodes
// to the same values every time.
package emb

import (
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"sync/atomic"

	"ugache/internal/par"
)

// DType is the element type of an embedding table.
type DType int

const (
	// Float32 entries, 4 bytes per element (PA, CF, CR datasets).
	Float32 DType = iota
	// Float16 entries, 2 bytes per element (the MAG dataset ships float16).
	Float16
)

// Size returns bytes per element.
func (d DType) Size() int {
	if d == Float16 {
		return 2
	}
	return 4
}

func (d DType) String() string {
	if d == Float16 {
		return "float16"
	}
	return "float32"
}

// Table is one embedding table.
type Table struct {
	Name       string
	NumEntries int64
	Dim        int
	DType      DType
	seed       uint64
	data       []byte        // nil for procedural tables; written by the build until built is closed
	built      chan struct{} // closed once every row of data is written; nil for procedural tables
	ready      atomic.Bool   // built is closed
}

// New creates a procedural table: rows are generated deterministically from
// the seed and key, with no backing storage.
func New(name string, n int64, dim int, dtype DType, seed uint64) (*Table, error) {
	if n <= 0 || dim <= 0 {
		return nil, fmt.Errorf("emb: table %q needs positive shape, got %d×%d", name, n, dim)
	}
	if dtype != Float32 && dtype != Float16 {
		return nil, fmt.Errorf("emb: table %q has unknown dtype %d", name, int(dtype))
	}
	return &Table{Name: name, NumEntries: n, Dim: dim, DType: dtype, seed: seed}, nil
}

// NewMaterialized creates a table with real backing bytes, filled with the
// same deterministic values a procedural table would generate. It returns
// once the shape is checked and builds the rows in the background, over
// what the caller does next (profiling hotness, solving); the first ReadRow
// waits for the whole table, and as the Filler is that reader, core.Build
// returns with its table complete. The rows are generated in place over
// GOMAXPROCS−1 key ranges (at least one; the last processor is the caller's).
func NewMaterialized(name string, n int64, dim int, dtype DType, seed uint64) (*Table, error) {
	t, err := New(name, n, dim, dtype, seed)
	if err != nil {
		return nil, err
	}
	eb := int64(t.EntryBytes())
	if n > (1<<31)/eb {
		return nil, fmt.Errorf("emb: materialized table %q would need %d rows of %d bytes, over 2 GiB; use a procedural table", name, n, eb)
	}
	workers := int(min(max(int64(runtime.GOMAXPROCS(0))-1, 1), n))
	t.built = make(chan struct{})
	go t.build(workers)
	return t, nil
}

// build generates the rows on workers goroutines, then marks the table ready.
func (t *Table) build(workers int) {
	eb := int64(t.EntryBytes())
	t.data = make([]byte, t.NumEntries*eb)
	par.Ranges(int(t.NumEntries), workers, func(_, lo, hi int) {
		for k := int64(lo); k < int64(hi); k++ {
			t.generate(k, t.data[k*eb:(k+1)*eb])
		}
	})
	t.ready.Store(true)
	close(t.built)
}

// EntryBytes returns the byte size of one row.
func (t *Table) EntryBytes() int { return t.Dim * t.DType.Size() }

// TotalBytes returns the full (virtual) size of the table.
func (t *Table) TotalBytes() int64 { return t.NumEntries * int64(t.EntryBytes()) }

// ReadRow copies row key into dst, which must be at least EntryBytes long.
// On a materialized table still being built it waits for the whole build.
func (t *Table) ReadRow(key int64, dst []byte) error {
	if key < 0 || key >= t.NumEntries {
		return fmt.Errorf("emb: key %d out of range [0, %d)", key, t.NumEntries)
	}
	if len(dst) < t.EntryBytes() {
		return fmt.Errorf("emb: dst too small: %d < %d", len(dst), t.EntryBytes())
	}
	if t.built != nil {
		if !t.ready.Load() {
			<-t.built
		}
		copy(dst, t.data[key*int64(t.EntryBytes()):(key+1)*int64(t.EntryBytes())])
		return nil
	}
	t.generate(key, dst)
	return nil
}

// generate fills dst with the deterministic row for key. Values are small
// floats in [-1, 1), a realistic range for trained embeddings. Element c is
// a 64-bit finalizer of seed ^ key·φ ^ c·K; the per-row half of that XOR and
// the dtype are fixed for the row, so both are settled outside the loop, and
// c·K is kept as a running sum. Float32 rows store two elements per 64-bit
// little-endian write, which lays them out as two 32-bit writes would.
func (t *Table) generate(key int64, dst []byte) {
	const k = 0xc2b2ae3d27d4eb4f
	row := t.seed ^ uint64(key)*0x9e3779b97f4a7c15
	ck := uint64(0) // c·K
	if t.DType == Float16 {
		dst = dst[:2*t.Dim]
		for c := 0; c < t.Dim; c++ {
			binary.LittleEndian.PutUint16(dst[2*c:], float32ToFloat16(unit(row^ck)))
			ck += k
		}
		return
	}
	dst = dst[:4*t.Dim]
	c := 0
	for ; c+1 < t.Dim; c += 2 {
		lo := math.Float32bits(unit(row ^ ck))
		ck += k
		hi := math.Float32bits(unit(row ^ ck))
		ck += k
		binary.LittleEndian.PutUint64(dst[4*c:], uint64(hi)<<32|uint64(lo))
	}
	if c < t.Dim {
		binary.LittleEndian.PutUint32(dst[4*c:], math.Float32bits(unit(row^ck)))
	}
}

// unit finalizes x and maps 23 bits of the hash to [-1, 1).
func unit(x uint64) float32 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return float32(int32(x&0x7fffff)-0x400000) / float32(0x400000)
}

// float32ToFloat16 converts to IEEE 754 half precision (round-to-nearest-
// even), sufficient for embedding values; NaN maps to a quiet NaN.
func float32ToFloat16(f float32) uint16 {
	b := math.Float32bits(f)
	sign := uint16(b>>16) & 0x8000
	exp := int32(b>>23)&0xff - 127 + 15
	mant := b & 0x7fffff
	switch {
	case int32(b>>23)&0xff == 0xff: // Inf/NaN
		if mant != 0 {
			return sign | 0x7e00
		}
		return sign | 0x7c00
	case exp >= 0x1f: // overflow -> Inf
		return sign | 0x7c00
	case exp <= 0: // subnormal or zero
		if exp < -10 {
			return sign
		}
		mant |= 0x800000
		shift := uint32(14 - exp)
		half := uint32(1) << (shift - 1)
		return sign | uint16((mant+half)>>shift)
	default:
		// Round to nearest even on the 13 truncated bits.
		rounded := mant + 0xfff + ((mant >> 13) & 1)
		if rounded&0x800000 == 0 {
			return sign | uint16(exp)<<10 | uint16(rounded>>13)
		}
		// Mantissa overflowed into the exponent.
		exp++
		if exp >= 0x1f {
			return sign | 0x7c00
		}
		return sign | uint16(exp)<<10
	}
}
