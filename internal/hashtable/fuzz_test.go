package hashtable

import "testing"

// FuzzHashtable runs a program read from the fuzz bytes against a Table and a
// Dedup, each checked against a map after every step. An instruction is an
// opcode byte (taken mod 8) and its operands:
//
//	0 k l      Table.Insert(key(k), loc(l))
//	1 k        Table.Lookup(key(k))
//	2 k        Table.Delete(key(k))
//	3 n k...   Table.BulkLookup of n%8 keys
//	4 k l      Table.Clone, then Insert(key(k), loc(l)) into the clone alone;
//	           the original must not see it, and the clone carries on
//	5 k        Dedup.Add(key(k))
//	6 k        Dedup.Index(key(k))
//	7 c        Dedup.Reset(c%64)
//
// Keys are k-2, so the table's two reserved sentinels (-1, -2) come up, and
// few enough that delete-then-reinsert is common; both structures start at
// capacity%16, so a program of a dozen inserts grows them. Missing operands
// read as zero. The seed corpus (testdata/fuzz/FuzzHashtable) covers growth
// past the initial capacity with deletes in between, delete-then-reinsert
// through a tombstone, a clone, and a Dedup reset and regrowth.
func FuzzHashtable(f *testing.F) {
	f.Fuzz(func(t *testing.T, capacity byte, prog []byte) {
		next := func() byte {
			if len(prog) == 0 {
				return 0
			}
			b := prog[0]
			prog = prog[1:]
			return b
		}
		key := func() int64 { return int64(next()) - 2 }
		loc := func() Location { b := next(); return Location{Offset: int64(b) * 64} }

		tbl, d := New(int(capacity%16)), NewDedup(int(capacity%16))
		model, dmodel := map[int64]Location{}, map[int64]int{}
		insert := func(tb *Table, k int64, l Location) {
			err := tb.Insert(k, l)
			if (err != nil) != (k < 0) {
				t.Fatalf("Insert(%d) = %v", k, err)
			}
		}
		for len(prog) > 0 {
			switch next() % 8 {
			case 0:
				k, l := key(), loc()
				insert(tbl, k, l)
				if k >= 0 {
					model[k] = l
				}
			case 1:
				k := key()
				got, ok := tbl.Lookup(k)
				if want, in := model[k]; ok != in || got != want {
					t.Fatalf("Lookup(%d) = (%v, %v), want (%v, %v)", k, got, ok, want, in)
				}
			case 2:
				k := key()
				_, in := model[k]
				if got := tbl.Delete(k); got != in {
					t.Fatalf("Delete(%d) = %v, want %v", k, got, in)
				}
				delete(model, k)
			case 3:
				keys := make([]int64, next()%8)
				for i := range keys {
					keys[i] = key()
				}
				locs, found := make([]Location, len(keys)), make([]bool, len(keys))
				n, want := tbl.BulkLookup(keys, locs, found), 0
				for i, k := range keys {
					l, in := model[k]
					if found[i] != in || locs[i] != l {
						t.Fatalf("BulkLookup key %d (%d) = (%v, %v), want (%v, %v)", i, k, locs[i], found[i], l, in)
					}
					if in {
						want++
					}
				}
				if n != want {
					t.Fatalf("BulkLookup found %d, want %d", n, want)
				}
			case 4:
				k, l := key(), loc()
				cl := tbl.Clone()
				insert(cl, k, l)
				want, in := model[k]
				if got, ok := tbl.Lookup(k); ok != in || got != want {
					t.Fatalf("an insert into a clone moved the original's %d to (%v, %v)", k, got, ok)
				}
				tbl = cl
				if k >= 0 {
					model[k] = l
				}
			case 5:
				k := key()
				want, seen := dmodel[k]
				if !seen {
					want = len(dmodel)
					dmodel[k] = want
				}
				if idx, fresh := d.Add(k); idx != want || fresh == seen {
					t.Fatalf("Add(%d) = (%d, %v), want (%d, %v)", k, idx, fresh, want, !seen)
				}
			case 6:
				k := key()
				want, seen := dmodel[k]
				if idx, ok := d.Index(k); ok != seen || idx != want {
					t.Fatalf("Index(%d) = (%d, %v), want (%d, %v)", k, idx, ok, want, seen)
				}
			case 7:
				d.Reset(int(next() % 64))
				clear(dmodel)
			}
			if tbl.Len() != len(model) || d.Len() != len(dmodel) {
				t.Fatalf("Len %d and %d, want %d and %d", tbl.Len(), d.Len(), len(model), len(dmodel))
			}
		}
		seen := 0
		tbl.Range(func(k int64, l Location) bool {
			if want, in := model[k]; !in || l != want {
				t.Fatalf("Range visits (%d, %v), want (%v, %v)", k, l, want, in)
			}
			seen++
			return true
		})
		if seen != len(model) {
			t.Fatalf("Range visits %d entries, want %d", seen, len(model))
		}
	})
}
