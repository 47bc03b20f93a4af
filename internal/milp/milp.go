// Package milp solves small mixed-integer linear programs by branch and
// bound over internal/lp's simplex. It stands in for Gurobi in the paper's
// cache-policy solver (§6.2): the exact, entry-granularity formulation is
// solved with this package on reduced instances (as the paper itself
// reduces instances for the Fig. 16 optimality study), while production-
// scale instances go through internal/solver's Lagrangian path.
//
// The search is a W-worker best-first branch and bound over a shared node
// queue. Branch nodes are an O(1) parent-chain overlay on the root problem
// (lp.SolveBounded), each worker reuses a private lp.Scratch, and the
// global bound is maintained as the minimum over open and in-flight
// subtree bounds so Progress.Gap and Solution.Bound tighten as the tree is
// consumed. For complete searches (RelGap 0) the result is deterministic
// across worker counts: subtrees that could still tie the incumbent are
// never pruned, and equal-objective incumbents are tie-broken by
// lexicographically smallest X, an order-independent argmin.
package milp

import (
	"container/heap"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"

	"ugache/internal/lp"
)

// Options tunes the search.
type Options struct {
	// MaxNodes caps the number of expanded branch-and-bound nodes
	// (0 = 100000). When the budget is hit the result is marked incomplete
	// and Bound carries the tightest bound proven so far.
	MaxNodes int
	// RelGap stops the search once (incumbent - bound)/|incumbent| is below
	// this value (0 = prove optimality). The bound is the live global bound,
	// not the root relaxation, so the target fires as soon as the tree has
	// actually tightened enough. A nonzero gap trades the X determinism
	// guarantee for speed: the objective stays within the gap for any worker
	// count, but which gap-optimal point is returned depends on timing.
	RelGap float64
	// Workers is the number of concurrent branch-and-bound workers sharing
	// the best-first queue (0 or 1 = sequential, negative = GOMAXPROCS).
	Workers int
	// OnProgress, when non-nil, observes the search: every accepted
	// incumbent, periodic global-bound improvements, and once at
	// termination. Calls are serialized (never concurrent, for any worker
	// count) and monotone — Nodes never decreases, Incumbent never worsens,
	// Bound never loosens. It must be fast and must not retain the Progress
	// value's address.
	OnProgress func(Progress)
}

// Progress is one observation of the branch-and-bound search state.
type Progress struct {
	// Nodes explored so far.
	Nodes int
	// Incumbent is the best integral objective found (+Inf before the
	// first incumbent).
	Incumbent float64
	// Bound is the proven global lower bound: the minimum over open subtree
	// bounds, which tightens as the tree is consumed.
	Bound float64
	// Gap is (Incumbent-Bound)/|Incumbent|, or +Inf with no incumbent.
	Gap float64
	// Final marks the terminating callback.
	Final bool
}

// Solution is a MILP result.
type Solution struct {
	Status    lp.Status
	Objective float64
	X         []float64
	// Bound is the best lower bound proven (equals Objective when the
	// search completed).
	Bound float64
	// Nodes is the number of expanded branch-and-bound nodes. With more
	// than one worker the count varies run to run (exploration order does),
	// even though the returned solution does not.
	Nodes int
	// Complete reports whether the search exhausted the tree (or met the
	// gap target) rather than hitting MaxNodes.
	Complete bool
}

const (
	intTol = 1e-6
	// pruneTol is the incumbent-comparison tolerance. A subtree is pruned
	// only when its bound is strictly worse than the incumbent by more than
	// pruneTol, so nodes that could still tie are explored in every run and
	// the lexicographic tie-break sees every optimal point regardless of
	// exploration order — the determinism guarantee.
	pruneTol = 1e-9
	// boundReportEvery throttles bound-only OnProgress callbacks to one per
	// this many expansions since the last report.
	boundReportEvery = 64
)

// bbNode is one open node. The branch overlay is a parent chain, so a node
// adds O(1) state instead of a problem copy; the chain is materialized
// into an lp.Bound slice only when the node is expanded.
type bbNode struct {
	parent *bbNode
	bd     lp.Bound
	// bound is the node's parent LP objective, a lower bound on every
	// solution in the subtree.
	bound float64
	depth int
	seq   uint64
}

// nodeHeap orders the open set best-first: lowest bound, then deepest
// (diving toward integral leaves), then insertion order.
type nodeHeap []*bbNode

func (h nodeHeap) Len() int { return len(h) }
func (h nodeHeap) Less(i, j int) bool {
	if h[i].bound != h[j].bound {
		return h[i].bound < h[j].bound
	}
	if h[i].depth != h[j].depth {
		return h[i].depth > h[j].depth
	}
	return h[i].seq < h[j].seq
}
func (h nodeHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *nodeHeap) Push(x any)   { *h = append(*h, x.(*bbNode)) }
func (h *nodeHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return x
}

// search is the shared state of one Solve call. All mutable fields are
// guarded by mu; OnProgress fires under mu, which serializes it.
type search struct {
	p        *lp.Problem
	integers []int
	relGap   float64
	maxNodes int
	onProg   func(Progress)

	mu   sync.Mutex
	cond *sync.Cond
	open nodeHeap
	// active[w] is the bound of the node worker w is expanding (+Inf when
	// idle); the global bound is min(heap top, active bounds) so an
	// in-flight subtree keeps holding the bound down until its children are
	// pushed.
	active    []float64
	nodes     int
	seq       uint64
	stopped   bool
	truncated bool
	gapMet    bool
	err       error
	incX      []float64
	incObj    float64
	// bestBound caches the high-water mark of the global bound, keeping
	// reports monotone against float jitter and heap churn.
	bestBound float64
	sinceProg int
}

// errIterationLimit fails the whole search: a relaxation without an answer
// leaves a subtree that can be neither bounded nor discarded, so there is no
// proof left to offer.
var errIterationLimit = errors.New("milp: an LP relaxation hit the simplex iteration limit")

// Solve minimizes the problem with the given variables restricted to
// integers. Variables keep their x ≥ 0 domain; callers add upper bounds as
// ordinary constraints.
func Solve(p *lp.Problem, integers []int, opt Options) (*Solution, error) {
	for _, v := range integers {
		if v < 0 || v >= p.NumVars() {
			return nil, fmt.Errorf("milp: integer variable %d out of range", v)
		}
	}
	maxNodes := opt.MaxNodes
	if maxNodes <= 0 {
		maxNodes = 100000
	}
	workers := opt.Workers
	if workers < 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers < 1 {
		workers = 1
	}

	root, err := p.Solve()
	if err != nil {
		return nil, err
	}
	if root.Status == lp.IterationLimit {
		return nil, errIterationLimit
	}
	if root.Status != lp.Optimal {
		if opt.OnProgress != nil {
			opt.OnProgress(progressAt(0, math.Inf(1), 0, true))
		}
		return &Solution{Status: root.Status, Complete: true}, nil
	}

	s := &search{
		p:         p,
		integers:  integers,
		relGap:    opt.RelGap,
		maxNodes:  maxNodes,
		onProg:    opt.OnProgress,
		active:    make([]float64, workers),
		incObj:    math.Inf(1),
		bestBound: root.Objective,
	}
	s.cond = sync.NewCond(&s.mu)
	for i := range s.active {
		s.active[i] = math.Inf(1)
	}

	s.mu.Lock()
	// The root relaxation counts as the first expanded node: an integral
	// root is immediately optimal, otherwise its children seed the queue.
	s.nodes = 1
	s.absorb(nil, root.Objective, root.X)
	s.checkDone()
	s.mu.Unlock()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s.worker(w)
		}(w)
	}
	wg.Wait()
	if s.err != nil {
		return nil, s.err
	}
	return s.finish()
}

// worker pulls nodes from the shared queue until the search stops, solving
// each relaxation with a private scratch.
func (s *search) worker(w int) {
	sc := &lp.Scratch{}
	var bounds []lp.Bound
	for {
		n, ok := s.next(w)
		if !ok {
			return
		}
		bounds = materialize(n, bounds[:0])
		sol, lpErr := s.p.SolveBounded(bounds, sc)
		if lpErr == nil && sol.Status == lp.IterationLimit {
			lpErr = errIterationLimit
		}

		s.mu.Lock()
		if lpErr != nil {
			if s.err == nil {
				s.err = lpErr
			}
			s.stopped = true
		} else {
			if sol.Status == lp.Optimal {
				s.absorb(n, sol.Objective, sol.X)
			}
			// Infeasible subtrees are simply dead; unbounded cannot appear
			// below a bounded root.
			s.sinceProg++
			if s.sinceProg >= boundReportEvery && !math.IsInf(s.incObj, 1) {
				s.report(progressAt(s.nodes, s.incObj, s.boundLocked(), false))
			}
		}
		s.active[w] = math.Inf(1)
		s.checkDone()
		// Wake peers: children may have been pushed, or this was the last
		// in-flight node and waiters must observe termination.
		s.cond.Broadcast()
		s.mu.Unlock()
	}
}

// next blocks until a node is available (returning it and charging it to
// the node budget) or the search is over.
func (s *search) next(w int) (*bbNode, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.stopped {
			return nil, false
		}
		for len(s.open) > 0 {
			if s.nodes >= s.maxNodes {
				s.stopped, s.truncated = true, true
				s.cond.Broadcast()
				return nil, false
			}
			n := heap.Pop(&s.open).(*bbNode)
			if n.bound > s.incObj+pruneTol {
				continue // incumbent tightened since the push
			}
			s.nodes++
			s.active[w] = n.bound
			return n, true
		}
		if s.idleLocked() {
			// Queue empty and nothing in flight: tree consumed.
			s.cond.Broadcast()
			return nil, false
		}
		s.cond.Wait()
	}
}

func (s *search) idleLocked() bool {
	for _, a := range s.active {
		if !math.IsInf(a, 1) {
			return false
		}
	}
	return true
}

// absorb folds one solved relaxation into the search state: prune, accept
// an integral incumbent, or push the two children. n is nil for the root.
// Caller holds mu.
func (s *search) absorb(n *bbNode, obj float64, x []float64) {
	if obj > s.incObj+pruneTol {
		return // cannot beat or tie the incumbent
	}
	// Branch on the most fractional integer variable (lowest index on
	// ties, so the shape of the tree is worker-count independent).
	branch := -1
	worst := intTol
	for _, v := range s.integers {
		f := x[v] - math.Floor(x[v])
		frac := math.Min(f, 1-f)
		if frac > worst {
			worst, branch = frac, v
		}
	}
	if branch < 0 {
		s.offer(obj, x)
		return
	}
	fl := math.Floor(x[branch])
	depth := 1
	if n != nil {
		depth = n.depth + 1
	}
	down := &bbNode{parent: n, bd: lp.Bound{Var: branch, Op: lp.LE, RHS: fl},
		bound: obj, depth: depth, seq: s.seq}
	up := &bbNode{parent: n, bd: lp.Bound{Var: branch, Op: lp.GE, RHS: fl + 1},
		bound: obj, depth: depth, seq: s.seq + 1}
	s.seq += 2
	heap.Push(&s.open, down)
	heap.Push(&s.open, up)
}

// offer proposes an integral point as incumbent. Selection is a total
// order — objective first, then lexicographic X — compared with exact
// floats, so the surviving incumbent is independent of arrival order.
// Caller holds mu.
func (s *search) offer(obj float64, x []float64) {
	if !(obj < s.incObj || (obj == s.incObj && lexLess(x, s.incX))) {
		return
	}
	s.incX = append(s.incX[:0], x...)
	s.incObj = obj
	s.report(progressAt(s.nodes, s.incObj, s.boundLocked(), false))
}

// boundLocked returns the proven global lower bound: the minimum over all
// open and in-flight subtree bounds, clamped by the incumbent and kept
// monotone. Caller holds mu.
func (s *search) boundLocked() float64 {
	b := math.Inf(1)
	if len(s.open) > 0 {
		b = s.open[0].bound
	}
	for _, a := range s.active {
		if a < b {
			b = a
		}
	}
	if b > s.incObj {
		b = s.incObj
	}
	if b > s.bestBound && !math.IsInf(b, 1) {
		s.bestBound = b
	}
	return s.bestBound
}

// checkDone flips the stop flags when the gap target is met or the node
// budget is exhausted with work remaining. Caller holds mu.
func (s *search) checkDone() {
	if s.stopped {
		return
	}
	if s.relGap > 0 && !math.IsInf(s.incObj, 1) &&
		gapOK(s.incObj, s.boundLocked(), s.relGap) {
		s.stopped, s.gapMet = true, true
		s.cond.Broadcast()
		return
	}
	if s.nodes >= s.maxNodes && len(s.open) > 0 {
		s.stopped, s.truncated = true, true
		s.cond.Broadcast()
	}
}

// report emits one serialized progress observation. Caller holds mu.
func (s *search) report(pr Progress) {
	s.sinceProg = 0
	if s.onProg != nil {
		s.onProg(pr)
	}
}

// finish assembles the Solution and fires the terminating callback.
func (s *search) finish() (*Solution, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sol := &Solution{
		Status:    lp.Infeasible,
		Objective: math.Inf(1),
		Nodes:     s.nodes,
		Complete:  !s.truncated,
	}
	if s.incX != nil {
		sol.Status = lp.Optimal
		sol.Objective = s.incObj
		sol.X = s.incX
		if sol.Complete && !s.gapMet {
			sol.Bound = sol.Objective
		} else {
			sol.Bound = s.boundLocked()
		}
	} else if s.truncated {
		// No incumbent yet, but the partial tree still proved a bound.
		sol.Bound = s.boundLocked()
	}
	inc := math.Inf(1)
	if sol.Status == lp.Optimal {
		inc = sol.Objective
	}
	s.report(progressAt(s.nodes, inc, sol.Bound, true))
	return sol, nil
}

// materialize walks the parent chain into a bound slice, root-most first
// (a fixed per-node order, so the overlay LP is identical no matter which
// worker expands the node).
func materialize(n *bbNode, buf []lp.Bound) []lp.Bound {
	for cur := n; cur != nil; cur = cur.parent {
		buf = append(buf, cur.bd)
	}
	for i, j := 0, len(buf)-1; i < j; i, j = i+1, j-1 {
		buf[i], buf[j] = buf[j], buf[i]
	}
	return buf
}

// lexLess reports whether a precedes b lexicographically, comparing exact
// floats; a nil b (no incumbent yet) never wins but that case is guarded
// by the objective comparison.
func lexLess(a, b []float64) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// progressAt packages one search observation.
func progressAt(nodes int, incumbent, bound float64, final bool) Progress {
	gap := math.Inf(1)
	if !math.IsInf(incumbent, 1) {
		if incumbent == 0 {
			gap = math.Abs(bound)
		} else {
			gap = (incumbent - bound) / math.Abs(incumbent)
		}
	}
	return Progress{Nodes: nodes, Incumbent: incumbent, Bound: bound, Gap: gap, Final: final}
}

func gapOK(incumbent, bound, relGap float64) bool {
	if incumbent == 0 {
		return math.Abs(bound) < relGap
	}
	return (incumbent-bound)/math.Abs(incumbent) <= relGap
}
