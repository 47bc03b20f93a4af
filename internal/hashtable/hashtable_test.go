package hashtable

import (
	"testing"
	"testing/quick"

	"ugache/internal/rng"
)

func TestInsertLookup(t *testing.T) {
	ht := New(16)
	for k := int64(0); k < 100; k++ {
		if err := ht.Insert(k, Location{Offset: k * 512}); err != nil {
			t.Fatal(err)
		}
	}
	if ht.Len() != 100 {
		t.Fatalf("Len = %d", ht.Len())
	}
	for k := int64(0); k < 100; k++ {
		loc, ok := ht.Lookup(k)
		if !ok || loc.Offset != k*512 {
			t.Fatalf("Lookup(%d) = %+v ok=%v", k, loc, ok)
		}
	}
	if _, ok := ht.Lookup(1000); ok {
		t.Fatal("phantom key")
	}
	if _, ok := ht.Lookup(-3); ok {
		t.Fatal("negative key found")
	}
}

func TestOverwrite(t *testing.T) {
	ht := New(4)
	ht.Insert(7, Location{Offset: 1})
	ht.Insert(7, Location{Offset: 99})
	if ht.Len() != 1 {
		t.Fatalf("Len = %d", ht.Len())
	}
	loc, _ := ht.Lookup(7)
	if loc.Offset != 99 {
		t.Fatalf("overwrite lost: %+v", loc)
	}
}

func TestDelete(t *testing.T) {
	ht := New(8)
	for k := int64(0); k < 50; k++ {
		ht.Insert(k, Location{Offset: k})
	}
	for k := int64(0); k < 50; k += 2 {
		if !ht.Delete(k) {
			t.Fatalf("Delete(%d) missed", k)
		}
	}
	if ht.Delete(0) {
		t.Fatal("double delete succeeded")
	}
	if ht.Delete(-1) {
		t.Fatal("negative delete succeeded")
	}
	if ht.Len() != 25 {
		t.Fatalf("Len = %d", ht.Len())
	}
	for k := int64(0); k < 50; k++ {
		_, ok := ht.Lookup(k)
		if want := k%2 == 1; ok != want {
			t.Fatalf("Lookup(%d) = %v, want %v", k, ok, want)
		}
	}
}

func TestTombstoneReuseAndProbeIntegrity(t *testing.T) {
	// Insert colliding keys, delete one in the middle of a probe chain, and
	// verify later chain members stay reachable, then reinsert.
	ht := New(4)
	for k := int64(0); k < 200; k++ {
		ht.Insert(k, Location{Offset: k})
	}
	for k := int64(50); k < 150; k++ {
		ht.Delete(k)
	}
	for k := int64(150); k < 200; k++ {
		loc, ok := ht.Lookup(k)
		if !ok || loc.Offset != k {
			t.Fatalf("chain broken at %d", k)
		}
	}
	for k := int64(50); k < 150; k++ {
		ht.Insert(k, Location{Offset: -0 + k*2})
	}
	for k := int64(50); k < 150; k++ {
		loc, ok := ht.Lookup(k)
		if !ok || loc.Offset != k*2 {
			t.Fatalf("reinsert lost at %d", k)
		}
	}
}

func TestInsertNegativeKey(t *testing.T) {
	if err := New(4).Insert(-1, Location{}); err == nil {
		t.Fatal("negative key accepted")
	}
}

func TestRange(t *testing.T) {
	ht := New(8)
	for k := int64(0); k < 20; k++ {
		ht.Insert(k, Location{Offset: k})
	}
	ht.Delete(5)
	seen := map[int64]bool{}
	ht.Range(func(k int64, loc Location) bool {
		if loc.Offset != k {
			t.Fatalf("wrong loc for %d", k)
		}
		seen[k] = true
		return true
	})
	if len(seen) != 19 || seen[5] {
		t.Fatalf("Range visited %d keys", len(seen))
	}
	// Early stop.
	n := 0
	ht.Range(func(int64, Location) bool { n++; return n < 3 })
	if n != 3 {
		t.Fatalf("early stop visited %d", n)
	}
}

func TestBulkLookup(t *testing.T) {
	ht := New(8)
	ht.Insert(1, Location{Offset: 10})
	ht.Insert(3, Location{Offset: 30})
	keys := []int64{1, 2, 3}
	locs := make([]Location, 3)
	found := make([]bool, 3)
	if n := ht.BulkLookup(keys, locs, found); n != 2 {
		t.Fatalf("found %d", n)
	}
	if !found[0] || found[1] || !found[2] || locs[2].Offset != 30 {
		t.Fatalf("bulk results wrong: %v %v", found, locs)
	}
}

func TestAgainstMapModel(t *testing.T) {
	// Property test: the table behaves like map[int64]Location under a
	// random operation sequence.
	r := rng.New(99)
	ht := New(4)
	model := map[int64]Location{}
	for op := 0; op < 20000; op++ {
		k := int64(r.Intn(500))
		switch r.Intn(3) {
		case 0, 1:
			loc := Location{Offset: int64(r.Uint64n(1e9))}
			ht.Insert(k, loc)
			model[k] = loc
		case 2:
			got := ht.Delete(k)
			_, want := model[k]
			if got != want {
				t.Fatalf("op %d: Delete(%d) = %v, want %v", op, k, got, want)
			}
			delete(model, k)
		}
		if ht.Len() != len(model) {
			t.Fatalf("op %d: Len %d vs model %d", op, ht.Len(), len(model))
		}
	}
	for k, want := range model {
		got, ok := ht.Lookup(k)
		if !ok || got != want {
			t.Fatalf("final Lookup(%d) = %+v ok=%v, want %+v", k, got, ok, want)
		}
	}
}

func TestQuickInsertLookup(t *testing.T) {
	f := func(keys []uint16) bool {
		ht := New(1)
		for i, ku := range keys {
			if err := ht.Insert(int64(ku), Location{Offset: int64(i)}); err != nil {
				return false
			}
		}
		for _, ku := range keys {
			if _, ok := ht.Lookup(int64(ku)); !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkLookup(b *testing.B) {
	ht := New(1 << 20)
	for k := int64(0); k < 1<<20; k++ {
		ht.Insert(k, Location{Offset: k})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ht.Lookup(int64(i) & (1<<20 - 1))
	}
}
