package emb

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"sync"
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

// TestMaterializedMatchesProcedural checks that the materialized rows are
// the reference generator's, read back through ReadRow, for both dtypes, at
// dims and row counts that do not divide evenly among the workers, with one
// worker (GOMAXPROCS 1) and with three (GOMAXPROCS 4); and that a procedural
// table reads back the same rows.
func TestMaterializedMatchesProcedural(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		for _, dtype := range []DType{Float32, Float16} {
			for _, dim := range []int{1, 7, 32, 128} {
				for _, n := range []int64{1, 3, 1001} {
					m, err := NewMaterialized("m", n, dim, dtype, 3)
					if err != nil {
						t.Fatal(err)
					}
					p, _ := New("p", n, dim, dtype, 3)
					eb := int64(m.EntryBytes())
					want, row := make([]byte, eb), make([]byte, eb)
					for k := int64(0); k < n; k++ {
						referenceRow(m, k, want)
						if err := m.ReadRow(k, row); err != nil {
							t.Fatal(err)
						}
						if !bytes.Equal(row, want) {
							t.Fatalf("GOMAXPROCS %d %v dim %d n %d: materialized row %d differs from the reference", procs, dtype, dim, n, k)
						}
						p.ReadRow(k, row)
						if !bytes.Equal(row, want) {
							t.Fatalf("GOMAXPROCS %d %v dim %d n %d: procedural row %d differs", procs, dtype, dim, n, k)
						}
					}
				}
			}
		}
	}
}

// TestReadsRaceTheBuild reads every row of a materialized table from several
// goroutines as soon as NewMaterialized returns, while GOMAXPROCS changes
// under the build: every read waits for the build and sees the reference
// bytes, whatever the worker count was at the call.
func TestReadsRaceTheBuild(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	const n, dim, readers = 20_011, 16, 4
	for _, procs := range []int{1, 3} {
		runtime.GOMAXPROCS(procs)
		m, err := NewMaterialized("m", n, dim, Float32, 9)
		if err != nil {
			t.Fatal(err)
		}
		runtime.GOMAXPROCS(4 - procs)
		bad := make(chan int64, readers)
		var wg sync.WaitGroup
		for r := 0; r < readers; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				want, row := make([]byte, m.EntryBytes()), make([]byte, m.EntryBytes())
				for i := int64(0); i < n; i++ {
					k := (i + int64(r)*n/readers) % n // each reader starts elsewhere
					referenceRow(m, k, want)
					if err := m.ReadRow(k, row); err != nil || !bytes.Equal(row, want) {
						bad <- k
						return
					}
				}
			}(r)
		}
		wg.Wait()
		close(bad)
		for k := range bad {
			t.Errorf("GOMAXPROCS %d at the call: row %d read during the build differs from the reference", procs, k)
		}
	}
}

var tableSink *Table

// BenchmarkNewMaterialized builds the benchmark harness's common table,
// 400,000 rows of 32 float32, and reads its last row, so each iteration
// times the whole background build and not only its launch.
func BenchmarkNewMaterialized(b *testing.B) {
	b.ReportAllocs()
	row := make([]byte, 32*4)
	for i := 0; i < b.N; i++ {
		tb, err := NewMaterialized("bench", 400_000, 32, Float32, 42)
		if err != nil {
			b.Fatal(err)
		}
		if err := tb.ReadRow(400_000-1, row); err != nil {
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
	for _, d := range []DType{-1, 2, 7} {
		if _, err := New("x", 4, 4, d, 1); err == nil {
			t.Fatalf("dtype %d accepted", int(d))
		}
		if _, err := NewMaterialized("x", 4, 4, d, 1); err == nil {
			t.Fatalf("materialized dtype %d accepted", int(d))
		}
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
	for _, tables := range [][]*Table{{t1, nil}, {nil, t1}} {
		_, err := NewMultiTable(tables)
		if err == nil {
			t.Fatal("nil table accepted")
		}
		if i := slices.Index(tables, nil); !strings.Contains(err.Error(), fmt.Sprintf("table %d ", i)) {
			t.Fatalf("error %q does not name index %d", err, i)
		}
	}
}
