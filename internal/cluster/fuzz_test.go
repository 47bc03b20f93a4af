package cluster

import (
	"encoding/binary"
	"math"
	"testing"
)

// FuzzRingOwner checks Ring.Owner on arbitrary rings (up to 16 nodes of up
// to 64 points each, any seed) and arbitrary keys: the owner is a node of the
// ring, it is the node a linear scan over the sorted points finds (first
// point at or after the key's hash, wrapping past the top), a twin built from
// the same (nodes, vnodes, seed) agrees, and growing the ring by one node
// either leaves a key where it was or moves it to the new node. raw is read
// as little-endian int64 keys, a short tail zero-padded.
func FuzzRingOwner(f *testing.F) {
	keys := func(ks ...int64) []byte {
		raw := make([]byte, 0, 8*len(ks))
		for _, k := range ks {
			raw = binary.LittleEndian.AppendUint64(raw, uint64(k))
		}
		return raw
	}
	f.Add(byte(0), byte(0), uint64(0), keys(0))                               // one node, one point, key 0
	f.Add(byte(0), byte(63), uint64(42), keys(0, 1, -1))                      // one node owns everything
	f.Add(byte(3), byte(0), uint64(0xC0FFEE), keys(math.MinInt64, 7))         // one point per node
	f.Add(byte(15), byte(63), uint64(1), keys(math.MaxInt64, math.MinInt64))  // the largest ring
	f.Add(byte(1), byte(31), ^uint64(0), append(keys(123456789), 0xff, 0x01)) // a short tail
	f.Fuzz(func(t *testing.T, nb, vb byte, seed uint64, raw []byte) {
		n, vnodes := 1+int(nb)%16, 1+int(vb)%64
		ring, twin, grown := newRing(t, n, vnodes, seed), newRing(t, n, vnodes, seed), newRing(t, n+1, vnodes, seed)
		pts := ring.points
		if len(pts) != n*vnodes {
			t.Fatalf("%d points for %d nodes x %d vnodes", len(pts), n, vnodes)
		}
		for i := 1; i < len(pts); i++ {
			if pts[i-1].hash > pts[i].hash || pts[i-1].hash == pts[i].hash && pts[i-1].node > pts[i].node {
				t.Fatalf("points %d and %d out of (hash, node) order", i-1, i)
			}
		}
		for len(raw) > 0 {
			var word [8]byte
			raw = raw[copy(word[:], raw):]
			k := int64(binary.LittleEndian.Uint64(word[:]))
			got := ring.Owner(k)
			if got < 0 || got >= n {
				t.Fatalf("Owner(%d) = %d on a %d-node ring", k, got, n)
			}
			want := pts[0].node // wrap-around: past the last point the first owns
			for _, p := range pts {
				if p.hash >= keyHash(seed, k) {
					want = p.node
					break
				}
			}
			if got != want {
				t.Fatalf("Owner(%d) = %d, linear scan finds %d", k, got, want)
			}
			if tw := twin.Owner(k); tw != got {
				t.Fatalf("Owner(%d) = %d, twin ring says %d", k, got, tw)
			}
			if g := grown.Owner(k); g != got && g != n {
				t.Fatalf("key %d moved %d -> %d when node %d joined", k, got, g, n)
			}
		}
	})
}
