package baselines

import (
	"math"
	"testing"
)

func TestOnlineLFUValidation(t *testing.T) {
	cases := []struct {
		n        int64
		capacity int
		decay    float64
	}{
		{0, 1, 0.9},
		{10, 0, 0.9},
		{10, 11, 0.9},
		{10, 5, 0},
		{10, 5, 1.5},
	}
	for i, c := range cases {
		if _, err := NewOnlineLFU(c.n, c.capacity, c.decay); err == nil {
			t.Fatalf("case %d accepted: %+v", i, c)
		}
	}
	if _, err := NewOnlineLFU(10, 10, 1); err != nil {
		t.Fatalf("full-coverage cache rejected: %v", err)
	}
}

// TestOnlineLFUAdaptsToShift: a decayed LFU tracks a flash-crowd key swap —
// the new hot set takes over the cache — and the takeover is charged to the
// churn tally.
func TestOnlineLFUAdaptsToShift(t *testing.T) {
	l, err := NewOnlineLFU(100, 5, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		l.Observe([]int64{0, 1, 2, 3, 4})
	}
	for k := int64(0); k < 5; k++ {
		if !l.holds(k) {
			t.Fatalf("hot key %d not cached", k)
		}
	}
	if l.holds(50) {
		t.Fatal("cold key cached")
	}
	hits, misses := l.classify([]int64{0, 1, 2, 3, 4, 50})
	if hits != 5 || misses != 1 {
		t.Fatalf("classify %d/%d, want 5/1", hits, misses)
	}
	admitted, evicted := l.Churn()
	if admitted != 5 || evicted != 0 {
		t.Fatalf("stationary churn %d/%d, want 5/0", admitted, evicted)
	}

	// Flash crowd: with decay 0.5 the old counts sit just below 1, so the
	// new keys' fresh count of 1 takes the whole cache on the first batch.
	for i := 0; i < 20; i++ {
		l.Observe([]int64{50, 51, 52, 53, 54})
	}
	for k := int64(50); k < 55; k++ {
		if !l.holds(k) {
			t.Fatalf("post-shift hot key %d not cached", k)
		}
	}
	if l.holds(0) {
		t.Fatal("pre-shift key still cached after the swap")
	}
	admitted, evicted = l.Churn()
	if admitted != 10 || evicted != 5 {
		t.Fatalf("post-shift churn %d/%d, want 10/5", admitted, evicted)
	}
}

// TestOnlineLFUPresenceAndTies: in-batch duplicates count once, ties break
// by ascending key, and out-of-range keys are ignored.
func TestOnlineLFUPresenceAndTies(t *testing.T) {
	l, err := NewOnlineLFU(10, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	l.Observe([]int64{5, 5, 5, 6, -1, 1000})
	if !l.holds(5) || !l.holds(6) {
		t.Fatal("observed keys not cached")
	}
	// Key 7 ties keys 5 and 6 at count 1; the ascending tie-break keeps the
	// incumbents, so membership (and churn) must not move.
	l.Observe([]int64{7})
	if l.holds(7) {
		t.Fatal("tied key displaced a lower incumbent")
	}
	admitted, evicted := l.Churn()
	if admitted != 2 || evicted != 0 {
		t.Fatalf("churn %d/%d after a no-op tie, want 2/0", admitted, evicted)
	}
}

func TestOnlineLFUServeTime(t *testing.T) {
	l, err := NewOnlineLFU(10, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	l.Observe([]int64{5, 6})
	// One local hit, one host miss at 4 bytes each.
	tpb := [][]float64{{1e-9, 2e-9, 5e-9}}
	got := l.ServeTime(tpb, 0, 2, []int64{5, 9}, 4)
	want := 4*1e-9 + 4*5e-9
	if math.Abs(got-want) > 1e-18 {
		t.Fatalf("serve time %g, want %g", got, want)
	}
}
