package solver

import (
	"fmt"
	"math"

	"ugache/internal/platform"
)

// Replication is the policy of single-GPU cache systems deployed per GPU
// (HPS, GNNLab; §3.1): every GPU independently caches the hottest entries,
// so all caches hold the same content and remote GPUs are never read.
type Replication struct{}

// Name implements Policy.
func (Replication) Name() string { return "replication" }

// Solve implements Policy.
func (Replication) Solve(in *Input) (*Placement, error) {
	c, err := newCtx(in)
	if err != nil {
		return nil, err
	}
	cuts := make([]int64, 0, in.P.N)
	for _, cap := range in.Capacity {
		cuts = append(cuts, min(cap, c.numEntries()))
	}
	blocks := c.build(cuts...)
	for bi := range blocks {
		b := &blocks[bi]
		for g := 0; g < in.P.N; g++ {
			if b.End <= in.Capacity[g] {
				b.Store[g] = true
				b.Access[g] = platform.SourceID(g)
			}
		}
	}
	return newPlacement(c, "replication", blocks), nil
}

// Partition is the policy of multi-GPU cache systems (WholeGraph, SOK,
// distributed-embeddings; §3.1): the hottest Σ capacities entries are
// cached exactly once, spread across GPUs, maximizing distinct entries.
// Readers reach unconnected owners fall back to host (plain WholeGraph
// cannot even launch there; this fallback is the PartU extension the paper
// built).
type Partition struct{}

// Name implements Policy.
func (Partition) Name() string { return "partition" }

// Solve implements Policy.
func (Partition) Solve(in *Input) (*Placement, error) {
	c, err := newCtx(in)
	if err != nil {
		return nil, err
	}
	var total int64
	for _, cap := range in.Capacity {
		total += cap
	}
	total = min(total, c.numEntries())
	blocks := c.build(total)
	assignPartition(in, blocks, allGPUs(in.P.N), append([]int64(nil), in.Capacity...), total)
	return newPlacement(c, "partition", blocks), nil
}

// CliquePartition is Quiver's clique approach (§3.1, §8.1 "PartU"): GPUs
// are grouped into fully connected cliques; each clique maintains its own
// partition cache and never reads across cliques. On fully connected
// platforms it degenerates to Partition.
type CliquePartition struct{}

// Name implements Policy.
func (CliquePartition) Name() string { return "clique-partition" }

// Solve implements Policy.
func (CliquePartition) Solve(in *Input) (*Placement, error) {
	c, err := newCtx(in)
	if err != nil {
		return nil, err
	}
	cliques := cliqueCover(in.P)
	cuts := make([]int64, 0, len(cliques))
	for _, cl := range cliques {
		var total int64
		for _, g := range cl {
			total += in.Capacity[g]
		}
		cuts = append(cuts, min(total, c.numEntries()))
	}
	blocks := c.build(cuts...)
	for ci, cl := range cliques {
		assignPartition(in, blocks, cl, append([]int64(nil), in.Capacity...), cuts[ci])
	}
	return newPlacement(c, "clique-partition", blocks), nil
}

// RepPart is the hot-replicate / warm-partition heuristic of Song & Jiang
// [39] (§6.3, §9): the hottest x entries are replicated on every GPU, the
// next span is partitioned, and x is chosen by scanning candidates against
// the §6.2 model. The paper notes it assumes a uniform fully connected
// platform; on other platforms it still runs but partitions within cliques.
type RepPart struct {
	// Candidates is the number of split points scanned (0 = 17).
	Candidates int
}

// Name implements Policy.
func (RepPart) Name() string { return "rep-part" }

// Solve implements Policy.
func (rp RepPart) Solve(in *Input) (*Placement, error) {
	c, err := newCtx(in)
	if err != nil {
		return nil, err
	}
	blocks, _ := rp.scan(c)
	return newPlacement(c, "rep-part", blocks), nil
}

// scan returns the best candidate's blocks and modelled makespan. Candidates
// are built and scored from the context at block granularity; nothing
// per-entry is materialized for the losers.
func (rp RepPart) scan(c *ctx) ([]Block, float64) {
	in := c.in
	cands := rp.Candidates
	if cands <= 0 {
		cands = 17
	}
	minCap := in.Capacity[0]
	for _, cap := range in.Capacity {
		minCap = min(minCap, cap)
	}
	cliques := cliqueCover(in.P)
	var best []Block
	bestT := math.Inf(1)
	for k := 0; k < cands; k++ {
		x := int64(0) // a single candidate is the pure-partition split
		if cands > 1 {
			x = min(int64(float64(minCap)*float64(k)/float64(cands-1)), c.numEntries())
		}
		blocks := c.build(repPartCuts(in, cliques, x, c.numEntries())...)
		// Replicated prefix.
		for bi := range blocks {
			b := &blocks[bi]
			if b.End > x {
				continue
			}
			for g := 0; g < in.P.N; g++ {
				b.Store[g] = true
				b.Access[g] = platform.SourceID(g)
			}
		}
		// Partitioned span, per clique, with the remaining capacity.
		for _, cl := range cliques {
			capLeft := make([]int64, in.P.N)
			var total int64
			for _, g := range cl {
				capLeft[g] = in.Capacity[g] - x
				total += capLeft[g]
			}
			end := min(x+total, c.numEntries())
			assignPartitionRange(in, blocks, cl, capLeft, x, end)
		}
		if t := maxF(c.estimate(blocks)); best == nil || t < bestT {
			bestT = t
			best = blocks
		}
	}
	return best, bestT
}

func repPartCuts(in *Input, cliques [][]int, x, e int64) []int64 {
	cuts := []int64{min(x, e)}
	for _, cl := range cliques {
		var total int64
		for _, g := range cl {
			total += in.Capacity[g] - x
		}
		cuts = append(cuts, min(x+total, e))
	}
	return cuts
}

// assignPartition spreads blocks [0, upTo) across members, each block to
// the member with the most remaining capacity (deterministic tie-break on
// index), and wires every member's access to the owner. Blocks that fit no
// member stay on host.
func assignPartition(in *Input, blocks []Block, members []int, capLeft []int64, upTo int64) {
	assignPartitionRange(in, blocks, members, capLeft, 0, upTo)
}

func assignPartitionRange(in *Input, blocks []Block, members []int, capLeft []int64, from, upTo int64) {
	host := in.fallback()
	for bi := range blocks {
		b := &blocks[bi]
		if b.Start < from || b.End > upTo {
			continue
		}
		owner := -1
		for _, g := range members {
			if capLeft[g] >= b.Entries() && (owner < 0 || capLeft[g] > capLeft[owner]) {
				owner = g
			}
		}
		if owner < 0 {
			continue
		}
		capLeft[owner] -= b.Entries()
		b.Store[owner] = true
		for _, i := range members {
			if b.Access[i] != host {
				continue // already served (e.g. replicated prefix)
			}
			if i == owner || in.P.Connected(i, owner) {
				b.Access[i] = platform.SourceID(owner)
			}
		}
	}
}

// cliqueCover greedily groups GPUs into fully connected cliques (Quiver's
// approach for platforms with unconnected pairs). Fully connected platforms
// yield a single clique.
func cliqueCover(p *platform.Platform) [][]int {
	assigned := make([]bool, p.N)
	var cliques [][]int
	for g := 0; g < p.N; g++ {
		if assigned[g] {
			continue
		}
		clique := []int{g}
		assigned[g] = true
		for h := g + 1; h < p.N; h++ {
			if assigned[h] {
				continue
			}
			ok := true
			for _, m := range clique {
				if !p.Connected(h, m) || !p.Connected(m, h) {
					ok = false
					break
				}
			}
			if ok {
				clique = append(clique, h)
				assigned[h] = true
			}
		}
		cliques = append(cliques, clique)
	}
	return cliques
}

func allGPUs(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func maxF(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// Policies returns every stock policy, in the order ugache-solve -compare
// prints them; PolicyByName resolves exactly their names.
func Policies() []Policy {
	return []Policy{Replication{}, Partition{}, CliquePartition{}, RepPart{}, UGache{}, OptimalLP{}}
}

// PolicyByName returns the stock policy whose Name is name.
func PolicyByName(name string) (Policy, error) {
	for _, pol := range Policies() {
		if pol.Name() == name {
			return pol, nil
		}
	}
	return nil, fmt.Errorf("solver: unknown policy %q", name)
}
