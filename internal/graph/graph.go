// Package graph provides the graph substrate for the GNN side of the
// evaluation: CSR storage, a power-law random graph generator standing in
// for the paper's datasets (OGB-Papers100M, Com-Friendster, MAG240M), and
// the k-hop neighbourhood samplers (GraphSAGE 2-hop, GCN 3-hop, and
// unsupervised GraphSAGE with negative sampling) whose skewed access
// patterns drive the embedding cache (paper §2, §8.1).
package graph

import (
	"fmt"
	"math"

	"ugache/internal/rng"
)

// CSR is a directed graph in compressed sparse row form. Node IDs are dense
// [0, N).
type CSR struct {
	IndPtr  []int64 // len N+1
	Indices []int32 // len E
}

// NumNodes returns the node count.
func (g *CSR) NumNodes() int { return len(g.IndPtr) - 1 }

// NumEdges returns the edge count.
func (g *CSR) NumEdges() int64 { return g.IndPtr[len(g.IndPtr)-1] }

// neighbors returns node v's adjacency slice (shared storage; do not
// modify).
func (g *CSR) neighbors(v int32) []int32 {
	return g.Indices[g.IndPtr[v]:g.IndPtr[v+1]]
}

// genPowerLaw generates a Chung–Lu style power-law graph: node v's expected
// degree follows w_v ∝ (v+1)^{-1/(γ-1)} (a power law with exponent γ in the
// degree distribution), and each of the round(w_v) out-edges of v targets a
// node drawn proportionally to the target's weight. Low node IDs are the
// high-degree "celebrities", mirroring how OGB datasets correlate ID with
// degree after sorting; the samplers do not exploit IDs.
//
// avgDeg is the desired mean out-degree; gamma is the degree-distribution
// exponent (2 < gamma <= 3.5 covers real social/citation graphs).
func genPowerLaw(n int, avgDeg float64, gamma float64, r *rng.Rand) (*CSR, error) {
	if n <= 0 {
		return nil, fmt.Errorf("graph: need positive node count, got %d", n)
	}
	if avgDeg <= 0 || gamma <= 2 {
		return nil, fmt.Errorf("graph: need avgDeg > 0 and gamma > 2, got %g, %g", avgDeg, gamma)
	}
	// Weights w_v = (v+1)^{-beta}, beta = 1/(gamma-1), scaled to the target
	// average degree.
	beta := 1 / (gamma - 1)
	weights := make([]float64, n)
	sum := 0.0
	for v := 0; v < n; v++ {
		w := math.Pow(float64(v+1), -beta)
		weights[v] = w
		sum += w
	}
	scale := avgDeg * float64(n) / sum
	// Out-degrees: round(scale * w) with a floor of 1 edge so no node is an
	// isolated sink (real preprocessed OGB graphs are connected enough that
	// samplers never strand).
	indptr := make([]int64, n+1)
	for v := 0; v < n; v++ {
		d := int64(scale*weights[v] + 0.5)
		if d < 1 {
			d = 1
		}
		if d > int64(n-1) {
			d = int64(n - 1)
		}
		indptr[v+1] = indptr[v] + d
	}
	e := indptr[n]
	indices := make([]int32, e)

	// Target sampling ∝ weight: inverse-CDF of the continuous power law is
	// closed-form, avoiding an O(n) alias table per graph.
	sampler := newPowerTargetSampler(n, beta)
	for v := 0; v < n; v++ {
		lo, hi := indptr[v], indptr[v+1]
		for i := lo; i < hi; i++ {
			t := sampler.sample(r)
			if t == int32(v) { // avoid self-loop cheaply
				t = int32((v + 1) % n)
			}
			indices[i] = t
		}
	}
	return &CSR{IndPtr: indptr, Indices: indices}, nil
}

// powerTargetSampler draws node IDs in [0, n) with probability ∝ (id+1)^-beta
// using analytic inversion of the continuous CDF — O(1) per draw.
type powerTargetSampler struct {
	n     int
	beta  float64
	norm  float64 // (n+1)^{1-beta} - 1
	exp   float64 // 1/(1-beta)
	isLog bool    // beta ~ 1: use the logarithmic form
}

func newPowerTargetSampler(n int, beta float64) *powerTargetSampler {
	s := &powerTargetSampler{n: n, beta: beta}
	if math.Abs(1-beta) < 1e-9 {
		s.isLog = true
		s.norm = math.Log(float64(n + 1))
		return s
	}
	s.norm = math.Pow(float64(n+1), 1-beta) - 1
	s.exp = 1 / (1 - beta)
	return s
}

func (s *powerTargetSampler) sample(r *rng.Rand) int32 {
	u := r.Float64()
	var x float64
	if s.isLog {
		x = math.Exp(u*s.norm) - 1
	} else {
		x = math.Pow(u*s.norm+1, s.exp) - 1
	}
	id := int32(x)
	if id < 0 {
		id = 0
	}
	if id >= int32(s.n) {
		id = int32(s.n - 1)
	}
	return id
}

// trainSet returns a deterministic pseudo-random subset of nodes of the
// given fraction, the training vertices a GNN epoch iterates over (the
// paper randomly selects a small portion for CF; OGB ships ~1% train
// splits).
func trainSet(n int, fraction float64, r *rng.Rand) []int32 {
	if fraction <= 0 || fraction > 1 {
		fraction = 0.01
	}
	k := int(float64(n) * fraction)
	if k < 1 {
		k = 1
	}
	// Partial Fisher–Yates over a virtual [0, n) using a map of displaced
	// slots keeps memory at O(k).
	displaced := make(map[int32]int32, k)
	out := make([]int32, k)
	for i := 0; i < k; i++ {
		j := int32(i) + int32(r.Intn(n-i))
		vj, ok := displaced[j]
		if !ok {
			vj = j
		}
		vi, ok := displaced[int32(i)]
		if !ok {
			vi = int32(i)
		}
		out[i] = vj
		displaced[j] = vi
	}
	return out
}
