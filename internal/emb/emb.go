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
	data       []byte // nil for procedural tables
}

// New creates a procedural table: rows are generated deterministically from
// the seed and key, with no backing storage.
func New(name string, n int64, dim int, dtype DType, seed uint64) (*Table, error) {
	if n <= 0 || dim <= 0 {
		return nil, fmt.Errorf("emb: table %q needs positive shape, got %d×%d", name, n, dim)
	}
	return &Table{Name: name, NumEntries: n, Dim: dim, DType: dtype, seed: seed}, nil
}

// NewMaterialized creates a table with real backing bytes, filled with the
// same deterministic values a procedural table would generate.
func NewMaterialized(name string, n int64, dim int, dtype DType, seed uint64) (*Table, error) {
	t, err := New(name, n, dim, dtype, seed)
	if err != nil {
		return nil, err
	}
	total := n * int64(t.EntryBytes())
	if total > 1<<31 {
		return nil, fmt.Errorf("emb: materialized table %q would need %d bytes; use a procedural table", name, total)
	}
	t.data = make([]byte, total)
	buf := make([]byte, t.EntryBytes())
	for k := int64(0); k < n; k++ {
		t.generate(k, buf)
		copy(t.data[k*int64(t.EntryBytes()):], buf)
	}
	return t, nil
}

// EntryBytes returns the byte size of one row.
func (t *Table) EntryBytes() int { return t.Dim * t.DType.Size() }

// TotalBytes returns the full (virtual) size of the table.
func (t *Table) TotalBytes() int64 { return t.NumEntries * int64(t.EntryBytes()) }

// ReadRow copies row key into dst, which must be at least EntryBytes long.
func (t *Table) ReadRow(key int64, dst []byte) error {
	if key < 0 || key >= t.NumEntries {
		return fmt.Errorf("emb: key %d out of range [0, %d)", key, t.NumEntries)
	}
	if len(dst) < t.EntryBytes() {
		return fmt.Errorf("emb: dst too small: %d < %d", len(dst), t.EntryBytes())
	}
	if t.data != nil {
		copy(dst, t.data[key*int64(t.EntryBytes()):(key+1)*int64(t.EntryBytes())])
		return nil
	}
	t.generate(key, dst)
	return nil
}

// generate fills dst with the deterministic row for key. Values are small
// floats in [-1, 1), a realistic range for trained embeddings.
func (t *Table) generate(key int64, dst []byte) {
	es := t.DType.Size()
	for c := 0; c < t.Dim; c++ {
		h := mix(t.seed, uint64(key), uint64(c))
		// Map 23 bits of hash to [-1, 1).
		v := float32(int32(h&0x7fffff)-0x400000) / float32(0x400000)
		switch t.DType {
		case Float16:
			binary.LittleEndian.PutUint16(dst[c*es:], Float32ToFloat16(v))
		default:
			binary.LittleEndian.PutUint32(dst[c*es:], math.Float32bits(v))
		}
	}
}

func mix(a, b, c uint64) uint64 {
	x := a ^ (b * 0x9e3779b97f4a7c15) ^ (c * 0xc2b2ae3d27d4eb4f)
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// DecodeFloats decodes raw row bytes of the given dtype into out.
func DecodeFloats(raw []byte, dtype DType, out []float32) {
	es := dtype.Size()
	for i := range out {
		switch dtype {
		case Float16:
			out[i] = Float16ToFloat32(binary.LittleEndian.Uint16(raw[i*es:]))
		default:
			out[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[i*es:]))
		}
	}
}

// Float32ToFloat16 converts to IEEE 754 half precision (round-to-nearest-
// even), sufficient for embedding values; NaN maps to a quiet NaN.
func Float32ToFloat16(f float32) uint16 {
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

// Float16ToFloat32 converts from IEEE 754 half precision.
func Float16ToFloat32(h uint16) float32 {
	sign := uint32(h&0x8000) << 16
	exp := uint32(h>>10) & 0x1f
	mant := uint32(h & 0x3ff)
	switch {
	case exp == 0:
		if mant == 0 {
			return math.Float32frombits(sign)
		}
		// Subnormal: normalize.
		e := uint32(127 - 15 + 1)
		for mant&0x400 == 0 {
			mant <<= 1
			e--
		}
		mant &= 0x3ff
		return math.Float32frombits(sign | e<<23 | mant<<13)
	case exp == 0x1f:
		return math.Float32frombits(sign | 0xff<<23 | mant<<13)
	default:
		return math.Float32frombits(sign | (exp-15+127)<<23 | mant<<13)
	}
}
