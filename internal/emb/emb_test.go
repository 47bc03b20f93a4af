package emb

import (
	"bytes"
	"encoding/binary"
	"math"
	"runtime"
	"testing"
	"testing/quick"
)

func TestProceduralDeterminism(t *testing.T) {
	a, err := New("a", 100, 8, Float32, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := New("b", 100, 8, Float32, 7)
	r1 := make([]byte, a.EntryBytes())
	r2 := make([]byte, b.EntryBytes())
	for k := int64(0); k < 100; k += 13 {
		if err := a.ReadRow(k, r1); err != nil {
			t.Fatal(err)
		}
		if err := b.ReadRow(k, r2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(r1, r2) {
			t.Fatalf("row %d differs across same-seed tables", k)
		}
	}
	c, _ := New("c", 100, 8, Float32, 8)
	c.ReadRow(0, r2)
	a.ReadRow(0, r1)
	if bytes.Equal(r1, r2) {
		t.Fatal("different seeds produced identical rows")
	}
}

// referenceRow is the row generator as first written: one mix per element,
// the dtype chosen per element, and the row built in a scratch buffer and
// copied out. The shipped generator must produce the same bytes.
func referenceRow(tb *Table, key int64, dst []byte) {
	mix := func(a, b, c uint64) uint64 {
		x := a ^ (b * 0x9e3779b97f4a7c15) ^ (c * 0xc2b2ae3d27d4eb4f)
		x ^= x >> 33
		x *= 0xff51afd7ed558ccd
		x ^= x >> 33
		x *= 0xc4ceb9fe1a85ec53
		x ^= x >> 33
		return x
	}
	es := tb.DType.Size()
	buf := make([]byte, tb.EntryBytes())
	for c := 0; c < tb.Dim; c++ {
		h := mix(tb.seed, uint64(key), uint64(c))
		v := float32(int32(h&0x7fffff)-0x400000) / float32(0x400000)
		switch tb.DType {
		case Float16:
			binary.LittleEndian.PutUint16(buf[c*es:], Float32ToFloat16(v))
		default:
			binary.LittleEndian.PutUint32(buf[c*es:], math.Float32bits(v))
		}
	}
	copy(dst, buf)
}

// TestMaterializedMatchesProcedural checks that the materialized bytes are
// the reference generator's, row for row, for both dtypes, at dims and row
// counts that do not divide evenly among the workers, with one worker and
// with three; and that a procedural table reads back the same rows.
func TestMaterializedMatchesProcedural(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 3} {
		runtime.GOMAXPROCS(procs)
		for _, dtype := range []DType{Float32, Float16} {
			for _, dim := range []int{1, 7, 32, 128} {
				for _, n := range []int64{1, 3, 1001} {
					m, err := NewMaterialized("m", n, dim, dtype, 3)
					if err != nil {
						t.Fatal(err)
					}
					p, _ := New("p", n, dim, dtype, 3)
					if m.data == nil || p.data != nil {
						t.Fatal("only the materialized table should hold bytes")
					}
					eb := int64(m.EntryBytes())
					want := make([]byte, n*eb)
					for k := int64(0); k < n; k++ {
						referenceRow(m, k, want[k*eb:(k+1)*eb])
					}
					if !bytes.Equal(m.data, want) {
						t.Fatalf("GOMAXPROCS %d %v dim %d n %d: materialized bytes differ from the reference", procs, dtype, dim, n)
					}
					row := make([]byte, eb)
					for k := int64(0); k < n; k++ {
						p.ReadRow(k, row)
						if !bytes.Equal(row, want[k*eb:(k+1)*eb]) {
							t.Fatalf("GOMAXPROCS %d %v dim %d n %d: procedural row %d differs", procs, dtype, dim, n, k)
						}
					}
				}
			}
		}
	}
}

var tableSink *Table

// BenchmarkNewMaterialized builds the benchmark harness's common table:
// 400,000 rows of 32 float32.
func BenchmarkNewMaterialized(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tb, err := NewMaterialized("bench", 400_000, 32, Float32, 42)
		if err != nil {
			b.Fatal(err)
		}
		tableSink = tb
	}
}

// rowFloats reads row key and decodes it to float32 values.
func rowFloats(tb *Table, key int64) ([]float32, error) {
	buf := make([]byte, tb.EntryBytes())
	if err := tb.ReadRow(key, buf); err != nil {
		return nil, err
	}
	out := make([]float32, tb.Dim)
	DecodeFloats(buf, tb.DType, out)
	return out, nil
}

func TestRowValuesInRange(t *testing.T) {
	tb, _ := New("t", 1000, 32, Float32, 11)
	for k := int64(0); k < 1000; k += 97 {
		vals, err := rowFloats(tb, k)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range vals {
			if v < -1 || v >= 1 || math.IsNaN(float64(v)) {
				t.Fatalf("row %d col %d out of range: %v", k, i, v)
			}
		}
	}
}

func TestFloat16Table(t *testing.T) {
	tb, _ := New("half", 10, 4, Float16, 1)
	if tb.EntryBytes() != 8 {
		t.Fatalf("EntryBytes = %d", tb.EntryBytes())
	}
	vals, err := rowFloats(tb, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range vals {
		if v < -1 || v > 1 {
			t.Fatalf("fp16 value out of range: %v", v)
		}
	}
}

func TestReadRowErrors(t *testing.T) {
	tb, _ := New("t", 10, 4, Float32, 1)
	buf := make([]byte, tb.EntryBytes())
	if err := tb.ReadRow(-1, buf); err == nil {
		t.Fatal("negative key accepted")
	}
	if err := tb.ReadRow(10, buf); err == nil {
		t.Fatal("out-of-range key accepted")
	}
	if err := tb.ReadRow(0, buf[:1]); err == nil {
		t.Fatal("short buffer accepted")
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New("x", 0, 4, Float32, 1); err == nil {
		t.Fatal("zero entries accepted")
	}
	if _, err := New("x", 4, 0, Float32, 1); err == nil {
		t.Fatal("zero dim accepted")
	}
	if _, err := NewMaterialized("x", 1<<40, 128, Float32, 1); err == nil {
		t.Fatal("huge materialized table accepted")
	}
	// 2^55 rows of 512 bytes: the byte count wraps to 0 in int64.
	if _, err := NewMaterialized("x", 1<<55, 128, Float32, 1); err == nil {
		t.Fatal("materialized table whose size wraps accepted")
	}
}

func TestFloat16RoundTrip(t *testing.T) {
	cases := []float32{0, 1, -1, 0.5, -0.25, 0.999, 1.0 / 3.0, 65504}
	for _, f := range cases {
		got := Float16ToFloat32(Float32ToFloat16(f))
		rel := math.Abs(float64(got-f)) / math.Max(1e-6, math.Abs(float64(f)))
		if rel > 1e-3 {
			t.Errorf("roundtrip %v -> %v (rel err %g)", f, got, rel)
		}
	}
	// Specials.
	if v := Float16ToFloat32(Float32ToFloat16(float32(math.Inf(1)))); !math.IsInf(float64(v), 1) {
		t.Error("+Inf roundtrip")
	}
	if v := Float16ToFloat32(Float32ToFloat16(float32(math.NaN()))); !math.IsNaN(float64(v)) {
		t.Error("NaN roundtrip")
	}
	// Overflow saturates to Inf.
	if v := Float16ToFloat32(Float32ToFloat16(1e10)); !math.IsInf(float64(v), 1) {
		t.Error("overflow should map to Inf")
	}
}

func TestFloat16RoundTripProperty(t *testing.T) {
	f := func(u uint16) bool {
		v := Float16ToFloat32(u)
		if math.IsNaN(float64(v)) {
			return true // NaN payloads need not roundtrip exactly
		}
		return Float32ToFloat16(v) == u
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestMultiTable(t *testing.T) {
	t1, _ := New("t1", 10, 4, Float32, 1)
	t2, _ := New("t2", 20, 8, Float32, 2)
	t3, _ := New("t3", 5, 4, Float32, 3)
	m, err := NewMultiTable([]*Table{t1, t2, t3})
	if err != nil {
		t.Fatal(err)
	}
	if m.NumEntries() != 35 {
		t.Fatalf("NumEntries = %d", m.NumEntries())
	}
	if m.Offset(1) != 10 || m.Offset(2) != 30 {
		t.Fatal("offsets wrong")
	}
	for _, tc := range []struct {
		key   int64
		table int
		local int64
	}{{0, 0, 0}, {9, 0, 9}, {10, 1, 0}, {29, 1, 19}, {30, 2, 0}, {34, 2, 4}} {
		tab, local, err := m.Locate(tc.key)
		if err != nil {
			t.Fatal(err)
		}
		if tab != tc.table || local != tc.local {
			t.Fatalf("Locate(%d) = (%d, %d), want (%d, %d)", tc.key, tab, local, tc.table, tc.local)
		}
	}
	if _, _, err := m.Locate(35); err == nil {
		t.Fatal("out of range accepted")
	}
	if _, _, err := m.Locate(-1); err == nil {
		t.Fatal("negative accepted")
	}
	if m.MaxEntryBytes() != 32 {
		t.Fatalf("MaxEntryBytes = %d", m.MaxEntryBytes())
	}
	if m.TotalBytes() != 10*16+20*32+5*16 {
		t.Fatalf("TotalBytes = %d", m.TotalBytes())
	}
	// Row read through the flattened view matches the direct read.
	direct := make([]byte, t2.EntryBytes())
	via := make([]byte, t2.EntryBytes())
	t2.ReadRow(7, direct)
	if err := m.ReadRow(17, via); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(direct, via) {
		t.Fatal("flattened read differs from direct read")
	}
	if eb, _ := m.EntryBytes(17); eb != 32 {
		t.Fatalf("EntryBytes(17) = %d", eb)
	}
}

func TestMultiTableValidation(t *testing.T) {
	if _, err := NewMultiTable(nil); err == nil {
		t.Fatal("empty accepted")
	}
	t1, _ := New("t1", 10, 4, Float32, 1)
	t2, _ := New("t2", 10, 4, Float16, 1)
	if _, err := NewMultiTable([]*Table{t1, t2}); err == nil {
		t.Fatal("mixed dtypes accepted")
	}
}
