package serve

import (
	"errors"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"ugache/internal/core"
	"ugache/internal/flight"
	"ugache/internal/platform"
	"ugache/internal/rng"
	"ugache/internal/timeline"
)

// fillRing admits n single-key requests on GPU 0 — whose worker the caller
// holds with parkWorker, so they stay queued — and returns their result
// channels.
func fillRing(t *testing.T, srv *Server, n int) []<-chan Result {
	t.Helper()
	chans := make([]<-chan Result, n)
	for i := range chans {
		chans[i] = srv.Handle(0, []int64{int64(i % 50)})
	}
	if got := srv.queues[0].depth(); got != n {
		t.Fatalf("queue depth %d after admitting %d below ring capacity", got, n)
	}
	return chans
}

func admissionSystem(t *testing.T) *core.System {
	t.Helper()
	sys, err := core.Build(core.Config{
		Platform:   platform.ServerA(),
		Hotness:    testHotness(200, 1.1, 9),
		EntryBytes: 32,
		CacheRatio: 0.2,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestAdmissionFastFail: a full ring sheds with ErrOverload, and Handle
// never waits for space: every shed, from any number of goroutines, is
// already in its channel when Handle returns. The sheds are counted, and the
// requests queued before them still complete. The sheds reach the trace's
// overload track through the batch records: the batch formed after them
// carries the new total, and the recorder draws the counter step and one
// shed instant from that.
func TestAdmissionFastFail(t *testing.T) {
	const shedders, perShedder = 4, 25
	fl := flight.NewRecorder(platform.ServerA().N, 8)
	srv, gate, _ := heldServer(t, Config{QueueDepth: 2, Flight: fl})
	parked := parkWorker(t, srv, gate)
	queued := fillRing(t, srv, 2)

	var wg sync.WaitGroup
	for c := 0; c < shedders; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perShedder; i++ {
				select {
				case res := <-srv.Handle(0, []int64{int64(c*perShedder + i)}):
					if !errors.Is(res.Err, ErrOverload) {
						t.Errorf("full ring: got err %v, want ErrOverload", res.Err)
					}
				default:
					t.Errorf("shedder %d request %d: Handle returned before its shed was in the channel", c, i)
				}
			}
		}(c)
	}
	wg.Wait()
	const sheds = shedders * perShedder
	if got := srv.met.rejected.Value(); got != sheds {
		t.Fatalf("serve_rejected_total = %d, want %d", got, sheds)
	}
	if got := srv.queues[0].depth(); got != 2 {
		t.Fatalf("queue depth %d after the sheds, want 2", got)
	}

	gate.open()
	for i, ch := range append([]<-chan Result{parked}, queued...) {
		if r := <-ch; r.Err != nil {
			t.Fatalf("queued request %d failed: %v", i, r.Err)
		}
	}

	srv.Close() // both flushes are over: their records are in the ring
	var shedTotals, newSheds []float64
	_, events := flight.Draw(fl)
	for _, ev := range events {
		switch {
		case ev.PID != timeline.ProcOverload || ev.TID != 0:
		case ev.Name == "shed_total":
			shedTotals = append(shedTotals, ev.Args[0].Val)
		case ev.Name == "overload-shed":
			newSheds = append(newSheds, ev.Args[0].Val)
		}
	}
	if !slices.Equal(shedTotals, []float64{0, sheds}) || !slices.Equal(newSheds, []float64{sheds}) {
		t.Fatalf("overload track: shed_total samples %v, shed instants %v; want [0 %d] and [%d]", shedTotals, newSheds, sheds, sheds)
	}
}

// TestDrainCoalesces is the regression test for the one-batch-per-leftover
// drain: requests still queued at Close are coalesced up to MaxBatchKeys per
// flush, like any other backlog. 20 requests x 4 keys against MaxBatchKeys 16
// must drain in exactly ceil(80/16) = 5 batches, not 20.
func TestDrainCoalesces(t *testing.T) {
	srv, err := New(admissionSystem(t), Config{
		MaxBatchKeys: 16,
		QueueDepth:   32,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Retire the live workers first so the rings below belong to the test.
	srv.Close()

	const reqs = 20
	chans := make([]<-chan Result, reqs)
	for i := 0; i < reqs; i++ {
		out := make(chan Result, 1)
		keys := []int64{int64(i), int64(i + 50), int64(i + 100), int64(i + 150)}
		r := &request{keys: keys, out: out, enqueued: time.Now()}
		if !srv.queues[0].push(r) {
			t.Fatalf("push %d failed", i)
		}
		chans[i] = out
	}
	for sc := srv.newWorkerScratch(0); srv.flushNext(0, srv.queues[0], sc, true); {
	}

	for i, ch := range chans {
		select {
		case r := <-ch:
			if r.Err != nil {
				t.Fatalf("drained request %d failed: %v", i, r.Err)
			}
		default:
			t.Fatalf("drained request %d got no result", i)
		}
	}
	st := srv.Stats()
	if st.Batches != 5 {
		t.Fatalf("drain flushed %d batches for %d requests, want 5 coalesced", st.Batches, reqs)
	}
	if got := srv.met.fill[flight.FillDrain].Value(); got != 5 {
		t.Fatalf("serve_batch_fill_drain_total = %d, want 5", got)
	}
}

// TestOverloadCloseFlood is the shutdown/overload interaction test: many
// goroutines flood Handle against deliberately tiny queues while Close races
// them, entering after a seeded number of scheduler yields so the rounds
// land at different points of the flood. No caller may be stranded, Close
// must return promptly, and every accepted-before-Close request must get a
// Result. Run with -race.
func TestOverloadCloseFlood(t *testing.T) {
	// Admission is fast-fail: a full queue sheds with ErrOverload at once.
	t.Run("fast-fail", func(t *testing.T) {
		sys := admissionSystem(t)
		yields := rng.New(37)
		for round := 0; round < 10; round++ {
			srv, err := New(sys, Config{MaxBatchKeys: 8, QueueDepth: 2})
			if err != nil {
				t.Fatal(err)
			}
			const clients = 8
			const perClient = 50
			var chans [clients * perClient]<-chan Result
			var wg sync.WaitGroup
			start := make(chan struct{})
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					<-start
					for i := 0; i < perClient; i++ {
						chans[c*perClient+i] = srv.Handle((c+i)%sys.P.N, []int64{int64(i % 200)})
					}
				}(c)
			}
			closed := make(chan time.Duration, 1)
			n := yields.Intn(64 * (round + 1))
			go func() {
				<-start
				for i := 0; i < n; i++ {
					runtime.Gosched()
				}
				t0 := time.Now()
				srv.Close()
				closed <- time.Since(t0)
			}()
			close(start)
			wg.Wait()
			select {
			case d := <-closed:
				if d > 5*time.Second {
					t.Fatalf("Close took %v under flood", d)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("Close stalled under flood")
			}
			deadline := time.After(10 * time.Second)
			for i, ch := range chans {
				select {
				case res := <-ch:
					if res.Err != nil && !errors.Is(res.Err, ErrClosed) && !errors.Is(res.Err, ErrOverload) {
						t.Fatalf("round %d request %d: unexpected error %v", round, i, res.Err)
					}
				case <-deadline:
					t.Fatalf("round %d: request %d stranded", round, i)
				}
			}
		}
	})
}

// TestWindowPoolable pins the prefetch pool's retention bound.
func TestWindowPoolable(t *testing.T) {
	const mbk = 1024
	if !windowPoolable(0, mbk) || !windowPoolable(mbk, mbk) || !windowPoolable(windowPoolMult*mbk, mbk) {
		t.Fatal("windowPoolable rejected a window within the retention bound")
	}
	if windowPoolable(windowPoolMult*mbk+1, mbk) {
		t.Fatal("windowPoolable retained an oversized window")
	}
}
