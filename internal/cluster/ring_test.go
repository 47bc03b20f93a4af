package cluster

import "testing"

// TestRingDeterministic: two rings built with identical parameters answer
// identically for every key — there is no hidden global state.
func TestRingDeterministic(t *testing.T) {
	a := newRing(t, 5, 0, 42)
	b := newRing(t, 5, 0, 42)
	for k := int64(0); k < 50_000; k++ {
		if a.Owner(k) != b.Owner(k) {
			t.Fatalf("key %d: owner %d vs %d across identical rings", k, a.Owner(k), b.Owner(k))
		}
	}
}

// TestRingGolden pins the shard assignment for a fixed seed. Any change to
// the hash functions, the point layout, or the tie-break silently reshuffles
// every deployed shard map; this test makes that a loud diff instead.
func TestRingGolden(t *testing.T) {
	r := newRing(t, 4, 0, 0xC0FFEE)
	want := []int{
		2, 0, 0, 3, 1, 3, 2, 0, 1, 3, 3, 3, 0, 2, 2, 0,
		0, 3, 3, 1, 3, 3, 0, 3, 1, 3, 2, 1, 1, 2, 3, 2,
	}
	for k, w := range want {
		if got := r.Owner(int64(k)); got != w {
			t.Fatalf("golden drift: Owner(%d) = %d, want %d", k, got, w)
		}
	}
}

// TestRingBalance: with defaultVnodes the shard sizes stay within a modest
// factor of the mean (the reason for vnodes in the first place).
func TestRingBalance(t *testing.T) {
	const keys = 100_000
	for _, n := range []int{2, 4, 8} {
		r := newRing(t, n, 0, 7)
		counts := make([]int, n)
		for k := int64(0); k < keys; k++ {
			counts[r.Owner(k)]++
		}
		mean := float64(keys) / float64(n)
		for node, c := range counts {
			if ratio := float64(c) / mean; ratio < 0.7 || ratio > 1.3 {
				t.Fatalf("n=%d node %d holds %d keys (%.2f× mean)", n, node, c, ratio)
			}
		}
	}
}

// TestRingBoundedMovement: growing the ring from n to n+1 nodes moves at
// most ~K/(n+1) keys (the consistent-hashing contract), and every moved key
// moves TO the new node — surviving shards never trade keys among
// themselves. Removal is the mirror image by symmetry (same point set).
func TestRingBoundedMovement(t *testing.T) {
	const keys = 200_000
	for _, n := range []int{2, 4, 8} {
		old := newRing(t, n, 0, 99)
		grown := newRing(t, n+1, 0, 99)
		moved := 0
		for k := int64(0); k < keys; k++ {
			was, is := old.Owner(k), grown.Owner(k)
			if was == is {
				continue
			}
			if is != n {
				t.Fatalf("n=%d→%d: key %d moved %d→%d, not to the new node", n, n+1, k, was, is)
			}
			moved++
		}
		// Expected movement is keys/(n+1); allow 30% slack for vnode
		// placement variance.
		bound := int(1.3 * float64(keys) / float64(n+1))
		if moved > bound {
			t.Fatalf("n=%d→%d: moved %d keys, bound %d", n, n+1, moved, bound)
		}
		if moved == 0 {
			t.Fatalf("n=%d→%d: no keys moved to the new node", n, n+1)
		}
	}
}

// newRing is NewRing for parameters a test knows to be good.
func newRing(t testing.TB, n, vnodes int, seed uint64) *Ring {
	t.Helper()
	r, err := NewRing(n, vnodes, seed)
	if err != nil {
		t.Fatal(err)
	}
	return r
}
