package cache

import (
	"bytes"
	"testing"

	"ugache/internal/emb"
	"ugache/internal/platform"
	"ugache/internal/rng"
	"ugache/internal/workload"
)

func buildGatherSystem(t *testing.T, n int) (*System, *emb.Table) {
	t.Helper()
	p := platform.ServerA()
	pl, in := testPlacement(t, p, n, 0.15)
	table, err := emb.NewMaterialized("t", int64(n), 16, emb.Float32, 5)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := Fill(p, pl, FillOptions{CapacityEntries: in.Capacity, Source: table})
	if err != nil {
		t.Fatal(err)
	}
	return sys, table
}

// TestGatherWithReusedScratch drives many gathers of varying size and
// destination through one scratch, verifying no state leaks between calls
// (the grouped BulkLookup path must match the per-key source of truth).
func TestGatherWithReusedScratch(t *testing.T) {
	sys, table := buildGatherSystem(t, 2000)
	eb := table.EntryBytes()
	z, _ := workload.NewZipf(2000, 1.1)
	r := rng.New(8)
	sc := NewGatherScratch()
	want := make([]byte, eb)
	for round := 0; round < 20; round++ {
		keys := make([]int64, r.Intn(400)+1)
		for i := range keys {
			keys[i] = z.Sample(r)
		}
		if round%3 == 0 {
			keys[0] = keys[len(keys)-1] // duplicates in one request
		}
		dst := round % sys.P.N
		out := make([]byte, len(keys)*eb)
		if err := sys.Gather(dst, keys, out, sc); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		for i, k := range keys {
			table.ReadRow(k, want)
			if !bytes.Equal(out[i*eb:(i+1)*eb], want) {
				t.Fatalf("round %d dst %d key %d: row differs", round, dst, k)
			}
		}
	}
}

func TestGatherWithValidation(t *testing.T) {
	sys, table := buildGatherSystem(t, 1000)
	eb := table.EntryBytes()
	sc := NewGatherScratch()
	out := make([]byte, 4*eb)
	if err := sys.Gather(-1, []int64{1}, out, sc); err == nil {
		t.Fatal("negative gpu accepted")
	}
	if err := sys.Gather(99, []int64{1}, out, sc); err == nil {
		t.Fatal("out-of-range gpu accepted")
	}
	if err := sys.Gather(0, []int64{-5}, out, sc); err == nil {
		t.Fatal("negative key accepted")
	}
	if err := sys.Gather(0, []int64{5000}, out, sc); err == nil {
		t.Fatal("out-of-range key accepted")
	}
	if err := sys.Gather(0, []int64{1, 2, 3, 4, 5}, out, sc); err == nil {
		t.Fatal("short output buffer accepted")
	}
	// The scratch stays usable after errors.
	if err := sys.Gather(0, []int64{1, 2, 3, 4}, out, sc); err != nil {
		t.Fatal(err)
	}
}
