package graph

import (
	"fmt"

	"ugache/internal/rng"
)

// Sampler draws the k-hop neighbourhood batches whose union of node IDs
// forms the embedding keys a GNN iteration extracts (paper §2: "the
// embedding of k-hop neighbors of each input node is also required").
type Sampler struct {
	G       *CSR
	Fanouts []int // neighbours sampled per hop, e.g. {25, 10} for GraphSAGE
	// Negative, if > 0, adds that many uniformly random nodes per seed node
	// — the negative sampling of unsupervised training, which the paper
	// notes reduces access skewness (§8.2).
	Negative int

	// LastHopCounts reports, after each SampleBatch, the number of unique
	// nodes first reached at each hop: index 0 is the seeds, index k the
	// k-th expansion (plus a final entry for negatives when enabled). The
	// dense-layer cost model prices per-hop frontiers with it.
	LastHopCounts []int
	// LastEdgesTouched reports the adjacency entries examined by the last
	// SampleBatch; the sampling-time model prices it.
	LastEdgesTouched int64

	r       *rng.Rand
	mark    []int32 // visited-batch marker per node
	markGen int32
}

// NewSampler creates a sampler. Standard configurations per the paper
// (§8.1): GraphSAGE supervised = 2-hop {25, 10}; GCN = 3-hop {15, 10, 5};
// GraphSAGE unsupervised adds negative sampling.
func NewSampler(g *CSR, fanouts []int, negative int, r *rng.Rand) (*Sampler, error) {
	if g == nil || g.NumNodes() == 0 {
		return nil, fmt.Errorf("graph: sampler needs a non-empty graph")
	}
	if len(fanouts) == 0 {
		return nil, fmt.Errorf("graph: sampler needs at least one hop")
	}
	for _, f := range fanouts {
		if f <= 0 {
			return nil, fmt.Errorf("graph: fanouts must be positive, got %v", fanouts)
		}
	}
	if negative < 0 {
		return nil, fmt.Errorf("graph: negative count must be >= 0")
	}
	return &Sampler{
		G: g, Fanouts: fanouts, Negative: negative,
		r: r, mark: make([]int32, g.NumNodes()), markGen: 0,
	}, nil
}

// SampleBatch expands the seed nodes hop by hop and returns the unique node
// IDs touched (seeds, sampled neighbours, and negatives). The returned
// slice is reused across calls; callers must not retain it.
func (s *Sampler) SampleBatch(seeds []int32) []int32 {
	s.markGen++
	s.LastHopCounts = s.LastHopCounts[:0]
	s.LastEdgesTouched = 0
	out := make([]int32, 0, len(seeds)*4)
	frontier := make([]int32, 0, len(seeds))
	visit := func(v int32) bool {
		if s.mark[v] == s.markGen {
			return false
		}
		s.mark[v] = s.markGen
		out = append(out, v)
		return true
	}
	for _, v := range seeds {
		if visit(v) {
			frontier = append(frontier, v)
		}
	}
	s.LastHopCounts = append(s.LastHopCounts, len(frontier))
	for _, fanout := range s.Fanouts {
		next := make([]int32, 0, len(frontier)*min(fanout, 8))
		for _, v := range frontier {
			adj := s.G.neighbors(v)
			if len(adj) == 0 {
				continue
			}
			if len(adj) <= fanout {
				// Take all neighbours (sampling without replacement would
				// return all of them anyway).
				s.LastEdgesTouched += int64(len(adj))
				for _, t := range adj {
					if visit(t) {
						next = append(next, t)
					}
				}
				continue
			}
			s.LastEdgesTouched += int64(fanout)
			for k := 0; k < fanout; k++ {
				t := adj[s.r.Intn(len(adj))]
				if visit(t) {
					next = append(next, t)
				}
			}
		}
		frontier = next
		s.LastHopCounts = append(s.LastHopCounts, len(frontier))
	}
	if s.Negative > 0 {
		n := s.G.NumNodes()
		negs := 0
		for range seeds {
			for k := 0; k < s.Negative; k++ {
				t := int32(s.r.Intn(n))
				if visit(t) {
					negs++
				}
			}
		}
		s.LastHopCounts = append(s.LastHopCounts, negs)
	}
	return out
}

// EpochBatches splits a training set into per-iteration seed batches for
// one epoch, shuffling deterministically.
func EpochBatches(train []int32, batchSize int, r *rng.Rand) [][]int32 {
	if batchSize <= 0 {
		batchSize = len(train)
	}
	shuffled := make([]int32, len(train))
	copy(shuffled, train)
	r.Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	var batches [][]int32
	for off := 0; off < len(shuffled); off += batchSize {
		end := off + batchSize
		if end > len(shuffled) {
			end = len(shuffled)
		}
		batches = append(batches, shuffled[off:end])
	}
	return batches
}
