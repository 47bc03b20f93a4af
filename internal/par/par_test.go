package par

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func TestWorkers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for _, c := range []struct{ units, minPer, want int }{
		{0, 10, 1}, {9, 10, 1}, {25, 10, 2}, {100, 10, 4}, {3, 1, 3}, {-5, 1, 1},
	} {
		if got := Workers(c.units, c.minPer); got != c.want {
			t.Errorf("Workers(%d, %d) = %d at GOMAXPROCS 4, want %d", c.units, c.minPer, got, c.want)
		}
	}
}

// TestRanges checks that the ranges cover [0, n) once, in order, with the
// stated bounds, W > n included.
func TestRanges(t *testing.T) {
	for _, W := range []int{1, 2, 3, 8} {
		for _, n := range []int{0, 1, W - 1, W, 1000} {
			var mu sync.Mutex
			got := make([][2]int, W)
			calls := make([]int, W)
			Ranges(n, W, func(w, lo, hi int) {
				mu.Lock()
				defer mu.Unlock()
				calls[w]++
				got[w] = [2]int{lo, hi}
			})
			end := 0
			for w := range W {
				if calls[w] != 1 {
					t.Fatalf("n %d W %d: range %d ran %d times", n, W, w, calls[w])
				}
				want := [2]int{n * w / W, n * (w + 1) / W}
				if got[w] != want || got[w][0] != end {
					t.Fatalf("n %d W %d: range %d is %v, want %v starting at %d", n, W, w, got[w], want, end)
				}
				end = got[w][1]
			}
			if end != n {
				t.Fatalf("n %d W %d: ranges end at %d", n, W, end)
			}
		}
	}
}

// TestEachRunsEveryIndexOnce runs every index exactly once, on workers
// numbered below min(W, n) of which no two share a number at once, n = 0
// and W > n included.
func TestEachRunsEveryIndexOnce(t *testing.T) {
	for _, W := range []int{1, 2, 3, 8} {
		for _, n := range []int{0, 1, W - 1, W, 1000} {
			runs := make([]atomic.Int32, n)
			busy := make([]atomic.Bool, W)
			err := Each(n, W, func(w, i int) error {
				if w < 0 || w >= min(W, n) {
					return fmt.Errorf("index %d on worker %d", i, w)
				}
				if busy[w].Swap(true) {
					return fmt.Errorf("worker %d runs two indices at once", w)
				}
				defer busy[w].Store(false)
				runs[i].Add(1)
				return nil
			})
			if err != nil {
				t.Fatalf("n %d W %d: %v", n, W, err)
			}
			for i := range runs {
				if r := runs[i].Load(); r != 1 {
					t.Fatalf("n %d W %d: index %d ran %d times", n, W, i, r)
				}
			}
		}
	}
}

// TestEachStopsAtAFailure runs every index below a failing one once, and
// none twice, and returns that index's error.
func TestEachStopsAtAFailure(t *testing.T) {
	const n, fail = 1000, 700
	for _, W := range []int{1, 2, 3, 8} {
		runs := make([]atomic.Int32, n)
		err := Each(n, W, func(_, i int) error {
			runs[i].Add(1)
			if i == fail {
				return fmt.Errorf("index %d", i)
			}
			return nil
		})
		if err == nil || err.Error() != "index 700" {
			t.Fatalf("W %d: error %v, want index 700's", W, err)
		}
		for i := range runs {
			if r := runs[i].Load(); r > 1 || i < fail && r != 1 {
				t.Fatalf("W %d: index %d ran %d times", W, i, r)
			}
		}
	}
}

// TestEachLowestFailureWins fails index 1 before index 0 and expects index
// 0's error; no index after the failures is claimed.
func TestEachLowestFailureWins(t *testing.T) {
	errZero, errOne := errors.New("index 0"), errors.New("index 1")
	for range 20 {
		oneFailed := make(chan struct{})
		var later atomic.Int32
		err := Each(100, 2, func(_, i int) error {
			switch i {
			case 0:
				// Index 1 is claimed by the other worker while this one waits.
				<-oneFailed
				return errZero
			case 1:
				close(oneFailed)
				return errOne
			}
			later.Add(1)
			return nil
		})
		if err != errZero {
			t.Fatalf("error %v, want %v", err, errZero)
		}
		if l := later.Load(); l != 0 {
			t.Fatalf("%d indices claimed after both failures", l)
		}
	}
}
