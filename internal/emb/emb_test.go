package emb

import (
	"bytes"
	"math"
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

func TestMaterializedMatchesProcedural(t *testing.T) {
	p, _ := New("p", 64, 16, Float32, 3)
	m, err := NewMaterialized("p", 64, 16, Float32, 3)
	if err != nil {
		t.Fatal(err)
	}
	if m.data == nil || p.data != nil {
		t.Fatal("only the materialized table should hold bytes")
	}
	bp := make([]byte, p.EntryBytes())
	bm := make([]byte, m.EntryBytes())
	for k := int64(0); k < 64; k++ {
		p.ReadRow(k, bp)
		m.ReadRow(k, bm)
		if !bytes.Equal(bp, bm) {
			t.Fatalf("row %d differs", k)
		}
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
