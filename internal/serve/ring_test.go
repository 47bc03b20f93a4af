package serve

import (
	"sync"
	"testing"
)

func TestRingCapacityRounding(t *testing.T) {
	cases := []struct{ in, want int }{
		{-5, 2}, {0, 2}, {1, 2}, {2, 2}, {3, 4}, {4, 4}, {5, 8}, {8, 8}, {200, 256},
	}
	for _, c := range cases {
		if got := newRing(c.in).capacity(); got != c.want {
			t.Errorf("newRing(%d).capacity() = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestRingFIFOAndFull(t *testing.T) {
	r := newRing(4)
	reqs := make([]*request, 4)
	for i := range reqs {
		reqs[i] = &request{keys: []int64{int64(i)}}
		if !r.push(reqs[i]) {
			t.Fatalf("push %d failed on non-full ring", i)
		}
	}
	if r.push(&request{}) {
		t.Fatal("push succeeded on a full ring")
	}
	if d := r.depth(); d != 4 {
		t.Fatalf("depth = %d, want 4", d)
	}
	for i := range reqs {
		got := r.pop()
		if got != reqs[i] {
			t.Fatalf("pop %d returned wrong request", i)
		}
	}
	if r.pop() != nil {
		t.Fatal("pop on empty ring returned a request")
	}
	if d := r.depth(); d != 0 {
		t.Fatalf("depth after drain = %d, want 0", d)
	}
	// A second lap must work (sequence stamps wrap per lap, not per uint64).
	for i := range reqs {
		if !r.push(reqs[i]) {
			t.Fatalf("second-lap push %d failed", i)
		}
	}
	for i := range reqs {
		if r.pop() != reqs[i] {
			t.Fatalf("second-lap pop %d returned wrong request", i)
		}
	}
}

// TestRingConcurrentProducers hammers the ring from many producers with one
// consumer and requires every pushed request to arrive exactly once. Run
// with -race.
func TestRingConcurrentProducers(t *testing.T) {
	const producers = 8
	const perProducer = 2000
	r := newRing(64)
	var pushed [producers]int
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				if r.push(&request{keys: []int64{int64(p*perProducer + i)}}) {
					pushed[p]++
				}
			}
		}(p)
	}
	seen := make(map[int64]bool)
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for {
		req := r.pop()
		if req == nil {
			select {
			case <-done:
				if req = r.pop(); req == nil {
					total := 0
					for _, n := range pushed {
						total += n
					}
					if len(seen) != total {
						t.Errorf("consumed %d unique requests, producers pushed %d", len(seen), total)
					}
					return
				}
			default:
				continue
			}
		}
		k := req.keys[0]
		if seen[k] {
			t.Fatalf("request %d delivered twice", k)
		}
		seen[k] = true
	}
}

func TestPendingGate(t *testing.T) {
	g := newPendingGate()
	g.wait() // zero count: returns immediately
	g.add(3)
	done := make(chan struct{})
	go func() { g.wait(); close(done) }()
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() { defer wg.Done(); g.add(-1) }()
	}
	wg.Wait()
	<-done
}
