package solver

import (
	"container/heap"
	"math"

	"ugache/internal/platform"
)

// UGache is the paper's cache-policy solver (§6): the §6.2 model built at
// hotness-block granularity (§6.3) and solved to (near-)optimality. The
// original hands the block MILP to Gurobi; here the same model is solved
// exactly by the internal LP solver wherever it is tractable — symmetric
// platforms (uniform hard-wired like Server A, switch-based like Server C)
// collapse to a replication-count formulation that scales to the full block
// budget. On asymmetric platforms at scale (DGX-1, where the paper itself
// could not obtain exact solutions and built reduced instances), UGache
// falls back to the best of a lazy-greedy marginal-benefit search
// (UGacheGreedy) and a connectivity-aware hot-replicate/warm-partition scan
// (RepPart).
type UGache struct{}

// Name implements Policy.
func (UGache) Name() string { return "ugache" }

// Solve implements Policy. One solve context serves the LP pass, the greedy
// fallback and the RepPart scan; the scan's winner is materialized only when
// it beats the placement it is compared with.
func (UGache) Solve(in *Input) (*Placement, error) {
	c, err := newCtx(in)
	if err != nil {
		return nil, err
	}
	var best *Placement
	if symmetric(in) {
		if pl, err := solveSymmetricLP(c); err == nil {
			best = pl
		}
		// Fall through to the heuristic candidates on LP failure — and compare
		// against the scan regardless: the striped realization costs what the
		// LP priced where blocks are divisible, but one row carrying a tenth of
		// the traffic is not, and there the scan's replicated head wins.
	}
	if best == nil {
		best = UGacheGreedy{}.solve(c)
	}
	if blocks, t := (RepPart{Candidates: 33}).scan(c); t < maxF(best.EstTimes) {
		rp := newPlacement(c, "rep-part", blocks)
		rp.LowerBound = best.LowerBound
		best = rp
	}
	best.Policy = "ugache"
	return best, nil
}

// UGacheGreedy is the heuristic fallback of UGache and an ablation policy
// in its own right: a lazy-greedy marginal-benefit search over block
// replicas against the §6.2 model —
//
//   - a move adds one replica of one block to one GPU; its benefit is the
//     weighted reduction in modelled extraction cost across all readers
//     (readers reroute to the cheapest reachable source, so the first
//     replica of a warm block competes against an extra replica of a hot
//     block exactly as in the MILP);
//   - benefits shrink as volume accumulates (diminishing returns), so a
//     lazy priority queue evaluates only a few candidates per step;
//   - multiplicative weights on the per-GPU times steer the search toward
//     the minimax objective on asymmetric platforms (DGX-1);
//   - a final rebalancing pass re-picks every reader's source with
//     load-aware tie-breaking, spreading remote traffic across replicas.
type UGacheGreedy struct {
	// RefineRounds bounds the swap-based local search after construction
	// (0 = 4; negative disables refinement).
	RefineRounds int
}

// The minimax reweighting schedule of the greedy search: every
// greedyReweightEvery applied moves, GPU i's weight becomes
// exp(greedyTheta * (t_i/t_max - 1)), normalised to mean 1 — at sharpness 4 a
// GPU at half the slowest one's time weighs e^-2 (about 1/7) of it. Nothing
// ever set other values, and these are the ones every golden placement was
// recorded with.
const (
	greedyTheta         = 4.0
	greedyReweightEvery = 64
)

// Name implements Policy.
func (UGacheGreedy) Name() string { return "ugache-greedy" }

type gstate struct {
	in     *Input
	m      *costModel
	blocks []Block
	// vol[i][j]: bytes GPU i pulls from source j per iteration.
	vol [][]float64
	// t[i]: modelled time per GPU; score[i]: greedy objective (time plus
	// routing-cost potential); w[i]: minimax weights.
	t, score, w []float64
	capLeft     []int64
	fb          platform.SourceID // fallback source: host, or network on clusters
}

// moveItem is a heap entry: a candidate (block, gpu) with a possibly stale
// benefit.
type moveItem struct {
	benefit float64
	block   int
	gpu     int
}

type moveHeap []moveItem

func (h moveHeap) Len() int      { return len(h) }
func (h moveHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h moveHeap) Less(i, j int) bool {
	if h[i].benefit != h[j].benefit {
		return h[i].benefit > h[j].benefit
	}
	if h[i].block != h[j].block {
		return h[i].block < h[j].block
	}
	return h[i].gpu < h[j].gpu
}
func (h *moveHeap) Push(x any) { *h = append(*h, x.(moveItem)) }
func (h *moveHeap) Pop() any {
	old := *h
	it := old[len(old)-1]
	*h = old[:len(old)-1]
	return it
}

// Solve implements Policy.
func (u UGacheGreedy) Solve(in *Input) (*Placement, error) {
	c, err := newCtx(in)
	if err != nil {
		return nil, err
	}
	return u.solve(c), nil
}

func (u UGacheGreedy) solve(c *ctx) *Placement {
	in := c.in
	st := &gstate{
		in:      in,
		m:       c.m,
		blocks:  c.build(),
		capLeft: append([]int64(nil), in.Capacity...),
		fb:      in.fallback(),
	}
	st.vol = make([][]float64, in.P.N)
	for i := range st.vol {
		st.vol[i] = make([]float64, in.P.NumSources())
	}
	st.w = make([]float64, in.P.N)
	for i := range st.w {
		st.w[i] = 1
	}
	// All blocks start on the fallback tier (host; network on clusters).
	for bi := range st.blocks {
		bytes := st.blocks[bi].Mass() * float64(in.EntryBytes)
		for i := 0; i < in.P.N; i++ {
			st.vol[i][st.fb] += bytes
		}
	}
	st.t = st.m.times(st.vol)
	st.score = make([]float64, in.P.N)
	for i := range st.score {
		st.score[i] = st.scoreOf(i)
	}

	// Seed the lazy heap with every candidate move.
	h := make(moveHeap, 0, len(st.blocks)*in.P.N)
	for bi := range st.blocks {
		for g := 0; g < in.P.N; g++ {
			if st.capLeft[g] >= st.blocks[bi].Entries() {
				h = append(h, moveItem{st.evalMove(bi, g), bi, g})
			}
		}
	}
	heap.Init(&h)

	applied := 0
	for h.Len() > 0 {
		it := heap.Pop(&h).(moveItem)
		if it.benefit <= 0 {
			break
		}
		b := &st.blocks[it.block]
		if b.Store[it.gpu] || st.capLeft[it.gpu] < b.Entries() {
			continue
		}
		// Lazy re-evaluation: apply only if still at least as good as the
		// next candidate's (stale) benefit.
		fresh := st.evalMove(it.block, it.gpu)
		if fresh <= 0 {
			continue
		}
		if h.Len() > 0 && fresh < h[0].benefit {
			heap.Push(&h, moveItem{fresh, it.block, it.gpu})
			continue
		}
		st.apply(it.block, it.gpu)
		applied++
		if applied%greedyReweightEvery == 0 {
			st.reweight()
		}
	}

	refineRounds := u.RefineRounds
	if refineRounds == 0 {
		refineRounds = 4
	}
	if refineRounds > 0 {
		st.refine(refineRounds)
	}
	st.rebalance()
	return newPlacement(c, "ugache-greedy", st.blocks)
}

// bestSource returns the cheapest reachable source for reader i of block b
// given its current Store set, breaking per-byte-cost ties toward the
// source with the least accumulated volume (spreading remote reads across
// replicas, which the final FEM dedication relies on).
func (st *gstate) bestSource(i, bi int) platform.SourceID {
	b := &st.blocks[bi]
	best := st.fb
	bestCost := st.m.perByteCost(i, st.fb)
	bestVol := st.vol[i][st.fb]
	for g := 0; g < st.in.P.N; g++ {
		if !b.Store[g] || (g != i && !st.in.P.Connected(i, g)) {
			continue
		}
		cost := st.m.perByteCost(i, platform.SourceID(g))
		if cost < bestCost-1e-18 ||
			(cost < bestCost+1e-18 && st.vol[i][g] < bestVol) {
			best = platform.SourceID(g)
			bestCost = cost
			bestVol = st.vol[i][g]
		}
	}
	return best
}

// timeOf recomputes reader i's modelled time from its volume row.
func (st *gstate) timeOf(i int) float64 {
	packing, linkBound := 0.0, 0.0
	for j, bytes := range st.vol[i] {
		if bytes == 0 {
			continue
		}
		packing += bytes * st.m.packCost[i][j]
		if t := bytes * st.m.invEff[i][j]; t > linkBound {
			linkBound = t
		}
	}
	if linkBound > packing {
		return linkBound
	}
	return packing
}

// scorePotential is the weight of the additive routing-cost potential in
// the greedy score. The §6.2 objective is a max, which has zero-gradient
// plateaus (a move that only shrinks a non-binding term looks worthless to
// a pure-max greedy even though it buys future slack); the potential keeps
// every strictly-cheaper routing strictly beneficial while the max term
// still dominates the ordering.
const scorePotential = 4.0

// scoreOf is the greedy objective for reader i: modelled time plus the
// routing-cost potential.
func (st *gstate) scoreOf(i int) float64 {
	pot := 0.0
	for j, bytes := range st.vol[i] {
		if bytes == 0 {
			continue
		}
		pot += bytes * (st.m.packCost[i][j] + st.m.invEff[i][j])
	}
	return st.timeOf(i) + scorePotential*pot
}

// evalMove computes the weighted time reduction of storing block bi on g,
// without mutating state.
func (st *gstate) evalMove(bi, g int) float64 {
	b := &st.blocks[bi]
	if b.Store[g] || st.capLeft[g] < b.Entries() {
		return -1
	}
	bytes := b.Mass() * float64(st.in.EntryBytes)
	if bytes == 0 {
		return 0
	}
	benefit := 0.0
	for i := 0; i < st.in.P.N; i++ {
		if i != g && !st.in.P.Connected(i, g) {
			continue
		}
		newCost := st.m.perByteCost(i, platform.SourceID(g))
		curCost := st.m.perByteCost(i, b.Access[i])
		if newCost >= curCost {
			continue
		}
		// Move the bytes between sources and re-evaluate this reader.
		old := st.score[i]
		st.vol[i][b.Access[i]] -= bytes
		st.vol[i][g] += bytes
		benefit += st.w[i] * (old - st.scoreOf(i))
		st.vol[i][g] -= bytes
		st.vol[i][b.Access[i]] += bytes
	}
	return benefit
}

// apply stores block bi on g and reroutes improved readers.
func (st *gstate) apply(bi, g int) {
	b := &st.blocks[bi]
	b.Store[g] = true
	st.capLeft[g] -= b.Entries()
	bytes := b.Mass() * float64(st.in.EntryBytes)
	for i := 0; i < st.in.P.N; i++ {
		if i != g && !st.in.P.Connected(i, g) {
			continue
		}
		if st.m.perByteCost(i, platform.SourceID(g)) < st.m.perByteCost(i, b.Access[i]) {
			st.vol[i][b.Access[i]] -= bytes
			st.vol[i][g] += bytes
			b.Access[i] = platform.SourceID(g)
			st.t[i] = st.timeOf(i)
			st.score[i] = st.scoreOf(i)
		}
	}
}

// reweight pushes weight toward the slowest GPUs (multiplicative weights on
// the minimax objective).
func (st *gstate) reweight() {
	maxT := 0.0
	for _, v := range st.t {
		if v > maxT {
			maxT = v
		}
	}
	if maxT == 0 {
		return
	}
	sum := 0.0
	for i, v := range st.t {
		st.w[i] = expFast(greedyTheta * (v/maxT - 1))
		sum += st.w[i]
	}
	scale := float64(len(st.w)) / sum
	for i := range st.w {
		st.w[i] *= scale
	}
}

// rebalance re-picks every reader's source with load-aware tie-breaking
// after storage is final.
func (st *gstate) rebalance() {
	// Reset volumes and reassign in block order.
	for i := range st.vol {
		for j := range st.vol[i] {
			st.vol[i][j] = 0
		}
	}
	for bi := range st.blocks {
		b := &st.blocks[bi]
		bytes := b.Mass() * float64(st.in.EntryBytes)
		for i := 0; i < st.in.P.N; i++ {
			src := st.bestSource(i, bi)
			b.Access[i] = src
			st.vol[i][src] += bytes
		}
	}
	for i := range st.t {
		st.t[i] = st.timeOf(i)
	}
}

func expFast(x float64) float64 { return math.Exp(x) }
