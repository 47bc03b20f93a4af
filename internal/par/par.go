// Package par is the fork-join of the set-up and the extractor. The caller
// is always one of the workers and a call returns once every worker has;
// callers write disjoint slots, so their bytes do not depend on the split.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers returns how many workers units of work take when each must get
// at least minPer ≥ 1 of them: units/minPer, clamped to [1, GOMAXPROCS].
func Workers(units, minPer int) int {
	return max(1, min(runtime.GOMAXPROCS(0), units/minPer))
}

// Ranges cuts [0, n) into the W ≥ 1 contiguous ranges [n·w/W, n·(w+1)/W)
// and calls f(w, lo, hi) on each, range 0 on the caller and the rest on
// goroutines of their own; ranges are empty where W > n.
func Ranges(n, W int, f func(w, lo, hi int)) {
	var wg sync.WaitGroup
	wg.Add(W - 1)
	for w := 1; w < W; w++ {
		go func() {
			defer wg.Done()
			f(w, n*w/W, n*(w+1)/W)
		}()
	}
	f(0, 0, n/W)
	wg.Wait()
}

// Each calls f(w, i) for every i in [0, n) on min(W, n) workers, worker 0
// the caller, which claim the indices in order; w is the claiming worker's
// number, so a worker can keep scratch space of its own. After a failure
// nothing is claimed, and as every index below a claimed one was claimed,
// the error returned, the lowest failing index's, does not depend on timing.
func Each(n, W int, f func(w, i int) error) error {
	e := &each{f: f, n: int64(n), failed: int64(n)}
	if W = min(W, n); W > 1 {
		e.wg.Add(W - 1)
		run := e.run // one closure for every goroutine: a call allocates e, run and f
		for range W - 1 {
			go run()
		}
	}
	e.work(0)
	e.wg.Wait()
	return e.err
}

// each is the state of one Each call.
type each struct {
	f       func(w, i int) error
	n       int64
	next    atomic.Int64 // the next index to claim; n once one fails
	workers atomic.Int64 // goroutines started, numbered 1, 2, … as they start
	wg      sync.WaitGroup
	mu      sync.Mutex
	failed  int64 // the lowest failing index, n while none has
	err     error
}

func (e *each) run() {
	defer e.wg.Done()
	e.work(int(e.workers.Add(1)))
}

func (e *each) work(w int) {
	for i := e.next.Add(1) - 1; i < e.n; i = e.next.Add(1) - 1 {
		if err := e.f(w, int(i)); err != nil {
			e.next.Store(e.n)
			e.mu.Lock()
			if i < e.failed {
				e.failed, e.err = i, err
			}
			e.mu.Unlock()
			return
		}
	}
}
