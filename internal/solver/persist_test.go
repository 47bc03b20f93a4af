package solver

import (
	"bytes"
	"encoding/binary"
	"math"
	"runtime"
	"testing"

	"ugache/internal/platform"
)

func TestPlacementSaveLoadRoundTrip(t *testing.T) {
	p := platform.ServerC()
	in := testInput(t, p, 8000, 1.1, 0.07)
	pl := mustSolve(t, UGache{}, in)

	var buf bytes.Buffer
	if err := pl.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := LoadPlacement(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Policy != pl.Policy || got.NumGPUs != pl.NumGPUs || got.EntryBytes != pl.EntryBytes {
		t.Fatalf("header mismatch: %+v", got)
	}
	if got.NumEntries() != pl.NumEntries() || len(got.Blocks) != len(pl.Blocks) {
		t.Fatal("shape mismatch")
	}
	// Loaded placement validates against the original input and answers
	// identically.
	if err := got.Validate(in); err != nil {
		t.Fatal(err)
	}
	for e := int64(0); e < got.NumEntries(); e += 97 {
		for g := 0; g < p.N; g++ {
			if got.SourceOf(g, e) != pl.SourceOf(g, e) {
				t.Fatalf("SourceOf(%d, %d) differs after roundtrip", g, e)
			}
			if got.StoredOn(g, e) != pl.StoredOn(g, e) {
				t.Fatalf("StoredOn(%d, %d) differs after roundtrip", g, e)
			}
		}
	}
	// Re-evaluated model times match.
	a := EstimateTimes(in, pl)
	b := EstimateTimes(in, got)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("EstimateTimes differ after roundtrip: %v vs %v", a, b)
		}
	}
}

func TestLoadPlacementRejectsGarbage(t *testing.T) {
	if _, err := LoadPlacement(bytes.NewReader([]byte("definitely not a placement"))); err == nil {
		t.Fatal("garbage accepted")
	}
	// Truncated stream.
	p := platform.ServerA()
	in := testInput(t, p, 1000, 1.1, 0.1)
	pl := mustSolve(t, Replication{}, in)
	var buf bytes.Buffer
	if err := pl.Save(&buf); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()/2]
	if _, err := LoadPlacement(bytes.NewReader(trunc)); err == nil {
		t.Fatal("truncated stream accepted")
	}
}

// placementBytes encodes Save's layout from its fields: the header (magic, an
// empty policy name, gpus, entry bytes, entries, blocks), then each of tail in
// order — uint64s, int32 ranks and accesses, float64 hotness, Store bytes.
func placementBytes(gpus, entryBytes, entries, blocks uint64, tail ...any) []byte {
	var b bytes.Buffer
	for _, v := range append([]any{placementMagic, uint64(0), gpus, entryBytes, entries, blocks}, tail...) {
		if err := binary.Write(&b, binary.LittleEndian, v); err != nil {
			panic(err)
		}
	}
	return b.Bytes()
}

// TestLoadPlacementTruncations: a file whose header promises more than it
// holds is refused, and refusing it costs memory in proportion to the bytes
// there are, not to the promise. The first case is 48 bytes that used to end
// the process in an unrecoverable out-of-memory error.
func TestLoadPlacementTruncations(t *testing.T) {
	const n = 1 << 18 // 1 MB of ranks: a block list this long would be 19 MB of Blocks
	ranks := make([]int32, n)
	for r := range ranks {
		ranks[r] = int32(r)
	}
	oneBlock := []any{uint64(0), uint64(1), 1.0, uint8(1), int32(0)}
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"entries beyond int32", placementBytes(1, 4, 1<<32, 0)},
		{"more blocks than entries", placementBytes(1, 4, 2, 3, []int32{0, 1})},
		{"cut in ByRank", placementBytes(1, 4, math.MaxInt32, 1, []int32{0, 1})},
		{"cut in the block list", placementBytes(1, 4, n, n, append([]any{ranks}, oneBlock...)...)},
		{"repeated rank", placementBytes(1, 4, 2, 1, []int32{0, 0}, uint64(0), uint64(2), 1.0, uint8(1), int32(0))},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := LoadPlacement(bytes.NewReader(tc.data))
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 8<<20 {
			t.Errorf("%s: allocated %d bytes to refuse %d", tc.name, alloc, len(tc.data))
		}
	}
}

// FuzzLoadPlacement: any bytes load or fail with an error, never a panic, and
// whatever loads saves to bytes that load and save back to themselves. The
// seed corpus (testdata/fuzz/FuzzLoadPlacement) holds a saved 3-GPU placement,
// its cuts in the header, the ranks and at block boundaries, and a header that
// promises 2³² entries.
func FuzzLoadPlacement(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		pl, err := LoadPlacement(bytes.NewReader(data))
		if err != nil {
			return
		}
		var once, twice bytes.Buffer
		if err := pl.Save(&once); err != nil {
			t.Fatal(err)
		}
		back, err := LoadPlacement(bytes.NewReader(once.Bytes()))
		if err != nil {
			t.Fatalf("a saved placement does not load: %v", err)
		}
		if err := back.Save(&twice); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(once.Bytes(), twice.Bytes()) {
			t.Fatal("save, load, save does not reproduce the saved bytes")
		}
	})
}
