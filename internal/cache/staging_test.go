package cache

import (
	"bytes"
	"sync"
	"testing"
)

// stagingRow builds the deterministic row pattern commits write for a key,
// so consumers can verify any returned row against the key alone.
func stagingRow(key int64, eb int) []byte {
	row := make([]byte, eb)
	for i := range row {
		row[i] = byte(uint64(key)*31 + uint64(i))
	}
	return row
}

func TestStagingCommitConsume(t *testing.T) {
	const eb = 16
	a, err := NewStaging(8, eb, true)
	if err != nil {
		t.Fatal(err)
	}
	keys := []int64{3, 7, 11}
	rows := make([]byte, 0, len(keys)*eb)
	for _, k := range keys {
		rows = append(rows, stagingRow(k, eb)...)
	}
	if err := a.Commit(keys, rows, 1, 0); err != nil {
		t.Fatal(err)
	}
	if a.Len() != 3 {
		t.Fatalf("Len %d, want 3", a.Len())
	}

	lookup := []int64{7, 5, 3}
	got := make([]byte, len(lookup)*eb)
	hit := make([]bool, len(lookup))
	hits, staleHits, maxStale := a.Consume(lookup, 0, 0, 1, got, hit)
	if hits != 2 || staleHits != 0 || maxStale != 0 {
		t.Fatalf("hits=%d staleHits=%d maxStale=%d, want 2,0,0", hits, staleHits, maxStale)
	}
	if !hit[0] || hit[1] || !hit[2] {
		t.Fatalf("hit mask %v", hit)
	}
	for i, k := range lookup {
		if !hit[i] {
			continue
		}
		if !bytes.Equal(got[i*eb:(i+1)*eb], stagingRow(k, eb)) {
			t.Fatalf("key %d: wrong row bytes", k)
		}
	}
}

func TestStagingRingEviction(t *testing.T) {
	a, err := NewStaging(4, 8, false)
	if err != nil {
		t.Fatal(err)
	}
	for k := int64(0); k < 10; k++ {
		if err := a.Commit([]int64{k}, nil, 1, k); err != nil {
			t.Fatal(err)
		}
	}
	if a.Len() != 4 {
		t.Fatalf("Len %d, want capacity 4", a.Len())
	}
	// Ten commits into four slots evict six: only the last 4 keys survive.
	for k := int64(0); k < 10; k++ {
		want := k >= 6
		if got := a.Resident(k, 10, 100, 1); got != want {
			t.Fatalf("key %d resident=%v, want %v", k, got, want)
		}
	}
}

// TestStagingStaleness pins the bounded-staleness contract: same-version
// rows are always servable; rows from an outgoing version only within S
// batches of their commit stamp, and with S=0 they die with their snapshot.
func TestStagingStaleness(t *testing.T) {
	a, err := NewStaging(8, 8, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Commit([]int64{1}, nil, 1, 10); err != nil {
		t.Fatal(err)
	}
	hit := make([]bool, 1)

	// Same version: servable regardless of age.
	if hits, _, _ := a.Consume([]int64{1}, 500, 0, 1, nil, hit); hits != 1 {
		t.Fatal("same-version row not servable")
	}
	// Version bumped, S=0: dead.
	if hits, _, _ := a.Consume([]int64{1}, 10, 0, 2, nil, hit); hits != 0 {
		t.Fatal("S=0 served a row from an outgoing version")
	}
	// Version bumped, S=3, staleness 2: servable and counted stale.
	hits, staleHits, maxStale := a.Consume([]int64{1}, 12, 3, 2, nil, hit)
	if hits != 1 || staleHits != 1 || maxStale != 2 {
		t.Fatalf("hits=%d staleHits=%d maxStale=%d, want 1,1,2", hits, staleHits, maxStale)
	}
	// Version bumped, S=3, staleness 4: expired.
	if hits, _, _ := a.Consume([]int64{1}, 14, 3, 2, nil, hit); hits != 0 {
		t.Fatal("row served beyond the staleness window")
	}
}

// TestStagingLifecycleRace is the staging-arena lifecycle property under
// -race: prefetch completions (Commit) recycling ring slots race consumers
// (Consume) and a refresh-style version bump, and no consumer may ever
// observe a freed or half-overwritten row — every hit row must be exactly
// the committed pattern for its key.
func TestStagingLifecycleRace(t *testing.T) {
	const (
		eb      = 32
		slots   = 64 // small ring so commits constantly recycle live slots
		keys    = 512
		rounds  = 300
		readers = 4
	)
	a, err := NewStaging(slots, eb, true)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Writer: commits sweeping key windows, bumping the version every few
	// rounds the way successive Refreshes would.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		batch := make([]int64, 16)
		rows := make([]byte, len(batch)*eb)
		for r := 0; r < rounds; r++ {
			for i := range batch {
				k := int64((r*7 + i*13) % keys)
				batch[i] = k
				copy(rows[i*eb:], stagingRow(k, eb))
			}
			version := uint64(1 + r/50)
			if err := a.Commit(batch, rows, version, int64(r)); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lookup := make([]int64, 8)
			got := make([]byte, len(lookup)*eb)
			hit := make([]bool, len(lookup))
			for r := 0; ; r++ {
				select {
				case <-stop:
					return
				default:
				}
				for i := range lookup {
					lookup[i] = int64((r*5 + i*17 + w) % keys)
				}
				// A huge staleness window keeps every resident row
				// servable across the writer's version bumps — the
				// adversarial case for use-after-recycle.
				a.Consume(lookup, int64(r), 1<<30, 1, got, hit)
				for i, k := range lookup {
					if !hit[i] {
						continue
					}
					if !bytes.Equal(got[i*eb:(i+1)*eb], stagingRow(k, eb)) {
						t.Errorf("reader %d: key %d returned foreign row bytes", w, k)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}
