package workload

import (
	"math"
	"slices"
	"testing"
	"time"
)

func TestZipfRankMatchesSample(t *testing.T) {
	z, err := NewZipf(10_000, 1.2)
	if err != nil {
		t.Fatal(err)
	}
	// Rank must be the deterministic inverse-CDF: monotone in u, in range,
	// and hitting both ends.
	if z.Rank(0) != 0 {
		t.Fatalf("Rank(0) = %d, want 0", z.Rank(0))
	}
	if got := z.Rank(0.999999999); got != z.N-1 {
		t.Fatalf("Rank(~1) = %d, want %d", got, z.N-1)
	}
	prev := int64(-1)
	for u := 0.0; u < 1; u += 0.001 {
		r := z.Rank(u)
		if r < prev {
			t.Fatalf("Rank not monotone at u=%g: %d < %d", u, r, prev)
		}
		prev = r
	}
}

func TestOpenLoopDeterministic(t *testing.T) {
	cfg := OpenLoopConfig{QPS: 5000, NumKeys: 50_000}
	a, err := NewOpenLoop(cfg, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewOpenLoop(cfg, 42)
	if err != nil {
		t.Fatal(err)
	}
	var ra, rb OpenLoopRequest
	for i := 0; i < 2000; i++ {
		a.Next(&ra)
		b.Next(&rb)
		if ra.At != rb.At || ra.User != rb.User {
			t.Fatalf("streams diverged at %d: %v/%d vs %v/%d", i, ra.At, ra.User, rb.At, rb.User)
		}
		for j := range ra.Keys {
			if ra.Keys[j] != rb.Keys[j] {
				t.Fatalf("keys diverged at request %d slot %d", i, j)
			}
		}
	}
}

// TestOpenLoopPinned holds the first arrivals of one seed to the values the
// stream produced when it also had a bursty arrival process: dropping that
// process left the Poisson stream draw for draw as it was.
func TestOpenLoopPinned(t *testing.T) {
	o, err := NewOpenLoop(OpenLoopConfig{QPS: 5000, NumKeys: 50_000, KeysPerRequest: 4}, 42)
	if err != nil {
		t.Fatal(err)
	}
	want := []struct {
		at   time.Duration
		user int64
		keys []int64
	}{
		{223989, 7440, []int64{4089, 3050, 7, 5}},
		{406240, 11443, []int64{14, 763, 8, 151}},
		{509977, 2916, []int64{26, 730, 2, 21}},
		{809054, 75280, []int64{13, 2, 11, 39983}},
	}
	var req OpenLoopRequest
	for i, w := range want {
		o.Next(&req)
		if req.At != w.at || req.User != w.user || !slices.Equal(req.Keys, w.keys) {
			t.Fatalf("arrival %d = %v user %d keys %v, want %v user %d keys %v", i, req.At, req.User, req.Keys, w.at, w.user, w.keys)
		}
	}
}

func TestOpenLoopPoissonRate(t *testing.T) {
	const qps = 10_000.0
	o, err := NewOpenLoop(OpenLoopConfig{QPS: qps, NumKeys: 10_000, Users: 1 << 20}, 7)
	if err != nil {
		t.Fatal(err)
	}
	const n = 50_000
	var req OpenLoopRequest
	for i := 0; i < n; i++ {
		o.Next(&req)
		if req.User < 0 || req.User >= 1<<20 {
			t.Fatalf("user %d out of range", req.User)
		}
		for _, k := range req.Keys {
			if k < 0 || k >= 10_000 {
				t.Fatalf("key %d out of range", k)
			}
		}
	}
	got := float64(n) / req.At.Seconds()
	if math.Abs(got-qps)/qps > 0.05 {
		t.Fatalf("empirical rate %.0f qps, want ~%.0f", got, qps)
	}
}

// TestOpenLoopPoissonDispersion checks the arrivals are Poisson in count, not
// only in rate: the index of dispersion (variance/mean of per-window arrival
// counts) of a Poisson process is 1.
func TestOpenLoopPoissonDispersion(t *testing.T) {
	const qps = 2_000.0
	o, err := NewOpenLoop(OpenLoopConfig{QPS: qps, NumKeys: 10_000}, 11)
	if err != nil {
		t.Fatal(err)
	}
	const n = 100_000
	const window = 10 * time.Millisecond
	counts := make(map[int64]int)
	var req OpenLoopRequest
	for i := 0; i < n; i++ {
		o.Next(&req)
		counts[int64(req.At/window)]++
	}
	lastWin := int64(req.At / window)
	mean, m2 := 0.0, 0.0
	for w := int64(0); w < lastWin; w++ { // include empty windows
		mean += float64(counts[w])
	}
	mean /= float64(lastWin)
	for w := int64(0); w < lastWin; w++ {
		d := float64(counts[w]) - mean
		m2 += d * d
	}
	if idx := m2 / float64(lastWin) / mean; idx < 0.8 || idx > 1.2 {
		t.Fatalf("dispersion index %.2f, want ~1", idx)
	}
	if rate := float64(n) / req.At.Seconds(); math.Abs(rate-qps)/qps > 0.05 {
		t.Fatalf("long-run rate %.0f, want ~%.0f", rate, qps)
	}
}

// userKeys is user u's full working set: the keys Next's affinity draws can
// produce, one per slot.
func userKeys(o *OpenLoop, u int64) []int64 {
	out := make([]int64, workingSet)
	for slot := range out {
		h := splitmix64(uint64(u)*0x100000001b3 + uint64(slot))
		out[slot] = o.keys.Rank(unit(h))
	}
	return out
}

// TestOpenLoopAffinity checks per-user key locality: one user's requests
// must come from their own working set, and from it rather than another
// user's.
func TestOpenLoopAffinity(t *testing.T) {
	o, err := NewOpenLoop(OpenLoopConfig{
		QPS: 1000, NumKeys: 1 << 20, Users: 1 << 30, KeysPerRequest: 8,
	}, 3)
	if err != nil {
		t.Fatal(err)
	}
	inSet := func(set []int64, k int64) bool {
		for _, s := range set {
			if s == k {
				return true
			}
		}
		return false
	}
	var req OpenLoopRequest
	own, ownOnly, otherOnly, total := 0, 0, 0, 0
	for i := 0; i < 3000; i++ {
		o.Next(&req)
		mine := userKeys(o, req.User)
		theirs := userKeys(o, req.User+1_000_003)
		for _, k := range req.Keys {
			total++
			m, th := inSet(mine, k), inSet(theirs, k)
			if m {
				own++
			}
			if m && !th {
				ownOnly++
			}
			if th && !m {
				otherOnly++
			}
		}
	}
	// Four keys in five are affinity draws, and a global draw can land in the
	// set by chance: 0.88 here. Popular keys sit in many users' sets by
	// design, so the per-user part is what only one of the two sets explains:
	// 0.48 of the keys for the user's own, 0.014 for the stranger's.
	if ownFrac := float64(own) / float64(total); ownFrac < 0.8 {
		t.Fatalf("only %.2f of keys from the user's own working set, want >= 0.8", ownFrac)
	}
	if 10*otherOnly > ownOnly {
		t.Fatalf("%d keys only the user's own set explains, %d only an unrelated user's — affinity not per-user", ownOnly, otherOnly)
	}
}

func TestOpenLoopConfigErrors(t *testing.T) {
	if _, err := NewOpenLoop(OpenLoopConfig{NumKeys: 10}, 1); err == nil {
		t.Fatal("accepted QPS <= 0")
	}
	if _, err := NewOpenLoop(OpenLoopConfig{QPS: 100}, 1); err == nil {
		t.Fatal("accepted NumKeys <= 0")
	}
}
