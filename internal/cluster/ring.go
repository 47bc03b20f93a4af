// Package cluster implements the sharded serving front end's key routing:
// a seeded, bounded-movement consistent-hash ring over the embedding key
// space. Each node projects Vnodes points onto a 64-bit circle; a key is
// owned by the node whose point follows the key's hash. Because every
// point's position depends only on (seed, node, replica) — never on the
// node set — adding or removing a node moves only the keys whose nearest
// point changed: an expected K/N fraction, the classic consistent-hashing
// bound the rebalance tests pin.
//
// The ring is immutable after construction and safe for concurrent lookups.
package cluster

import (
	"fmt"
	"sort"
)

// defaultVnodes is the stock per-node virtual-point count. 160 points per
// node (the ketama convention) keeps the max/mean shard-size ratio within a
// few percent at the node counts we model.
const defaultVnodes = 160

type point struct {
	hash uint64
	node int
}

// Ring is an immutable consistent-hash ring over n nodes.
type Ring struct {
	seed   uint64
	points []point // sorted by (hash, node)
}

// mix is the splitmix64 finalizer — a cheap, high-quality 64-bit mixer.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// pointHash positions one (node, replica) virtual point. Independent of the
// node set, so surviving nodes' points never move on membership change.
func pointHash(seed uint64, node, replica int) uint64 {
	return mix(seed ^ mix(uint64(node)*0x9e3779b97f4a7c15+uint64(replica)+1))
}

// keyHash positions one embedding key on the circle.
func keyHash(seed uint64, key int64) uint64 {
	return mix(seed ^ (uint64(key) * 0xd1b54a32d192ed03))
}

// NewRing builds a ring over nodes 0..n-1 with vnodes points each (0 means
// defaultVnodes). The seed makes distinct rings (e.g. test fixtures vs the
// live router) independent while keeping each fully deterministic.
func NewRing(n, vnodes int, seed uint64) (*Ring, error) {
	if n < 1 {
		return nil, fmt.Errorf("cluster: ring needs at least one node, got %d", n)
	}
	if vnodes == 0 {
		vnodes = defaultVnodes
	}
	if vnodes < 1 {
		return nil, fmt.Errorf("cluster: vnodes must be positive, got %d", vnodes)
	}
	r := &Ring{seed: seed, points: make([]point, 0, n*vnodes)}
	for node := 0; node < n; node++ {
		for rep := 0; rep < vnodes; rep++ {
			r.points = append(r.points, point{pointHash(seed, node, rep), node})
		}
	}
	// Tie-break equal hashes by node id so the order (and therefore every
	// Owner answer) is deterministic even in the astronomically unlikely
	// collision case.
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].node < r.points[j].node
	})
	return r, nil
}

// Owner returns the node owning key: the node of the first point at or
// after the key's hash, wrapping at the top of the circle.
func (r *Ring) Owner(key int64) int {
	h := keyHash(r.seed, key)
	pts := r.points
	i := sort.Search(len(pts), func(i int) bool { return pts[i].hash >= h })
	if i == len(pts) {
		i = 0
	}
	return pts[i].node
}
