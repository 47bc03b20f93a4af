package serve

import (
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"ugache/internal/core"
	"ugache/internal/platform"
)

// TestCloseHandleRace is the regression test for the lost-request shutdown
// race: before the two-phase Close, a Handle that had passed the closed
// check could win the enqueue select after the worker's final drain and
// strand its caller forever. Hammer Handle from many goroutines while Close
// runs concurrently, and require that every issued request receives a
// Result — success, ErrClosed, or (with the tiny queue here saturated)
// ErrOverload — within a bounded wait. Run with -race.
func TestCloseHandleRace(t *testing.T) {
	sys, err := core.Build(core.Config{
		Platform:   platform.ServerA(),
		Hotness:    testHotness(500, 1.1, 5),
		EntryBytes: 32,
		CacheRatio: 0.1,
	})
	if err != nil {
		t.Fatal(err)
	}

	const rounds = 30
	const clients = 8
	const perClient = 40
	for round := 0; round < rounds; round++ {
		srv, err := New(sys, Config{
			MaxBatchKeys: 16,
			QueueDepth:   2, // tiny queue: enqueues block and straddle Close
		})
		if err != nil {
			t.Fatal(err)
		}

		var chans [clients * perClient]<-chan Result
		var wg sync.WaitGroup
		start := make(chan struct{})
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				<-start
				for i := 0; i < perClient; i++ {
					chans[c*perClient+i] = srv.Handle((c+i)%sys.P.N, []int64{int64(i % 500), int64((i * 7) % 500)})
				}
			}(c)
		}
		closeDone := make(chan struct{})
		go func() {
			defer close(closeDone)
			<-start
			// Land Close in the middle of the Handle storm.
			time.Sleep(time.Duration(rand.Intn(300)) * time.Microsecond)
			srv.Close()
		}()
		close(start)
		wg.Wait()
		<-closeDone

		deadline := time.After(10 * time.Second)
		for i, ch := range chans {
			select {
			case res := <-ch:
				if res.Err != nil && !errors.Is(res.Err, ErrClosed) && !errors.Is(res.Err, ErrOverload) {
					t.Fatalf("round %d request %d: unexpected error %v", round, i, res.Err)
				}
			case <-deadline:
				t.Fatalf("round %d: request %d stranded after Close (lost-request race)", round, i)
			}
		}
	}
}

// TestCloseIdempotentConcurrent runs several Close calls in parallel with
// a trickle of Handles; nothing may deadlock or panic, and the server must
// reject requests afterwards.
func TestCloseIdempotentConcurrent(t *testing.T) {
	sys, err := core.Build(core.Config{
		Platform:   platform.ServerA(),
		Hotness:    testHotness(200, 1.1, 5),
		EntryBytes: 32,
		CacheRatio: 0.2,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(sys, Config{})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() { defer wg.Done(); srv.Close() }()
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-srv.Handle(i%sys.P.N, []int64{1, 2, 3})
		}(i)
	}
	wg.Wait()
	if res := <-srv.Handle(0, []int64{1}); !errors.Is(res.Err, ErrClosed) {
		t.Fatalf("closed server accepted a request: %+v", res)
	}
}
