package workload

import (
	"context"
	"slices"
	"testing"
	"time"
)

// streams builds one generator per seed at qps each, and the arrivals each
// would make before span, drawn from a same-seeded replica.
func streams(t *testing.T, qps float64, span time.Duration, seeds ...uint64) ([]*OpenLoop, [][]OpenLoopRequest) {
	t.Helper()
	cfg := OpenLoopConfig{QPS: qps, NumKeys: 10_000, KeysPerRequest: 4}
	gens := make([]*OpenLoop, len(seeds))
	want := make([][]OpenLoopRequest, len(seeds))
	for g, seed := range seeds {
		var err error
		if gens[g], err = NewOpenLoop(cfg, seed); err != nil {
			t.Fatal(err)
		}
		replica, _ := NewOpenLoop(cfg, seed)
		for {
			var req OpenLoopRequest
			replica.Next(&req)
			if req.At >= span {
				break
			}
			req.Keys = slices.Clone(req.Keys)
			want[g] = append(want[g], req)
		}
	}
	return gens, want
}

// TestDriveOpenLoopOrder runs three streams, the first two identical, against
// a fake server that answers each GPU's requests in bursts of three, newest
// first: sends go out in intended-arrival order with ties to the lower GPU,
// with the stream's own keys and none at or past the span, and every reply is
// settled once, in send order per GPU, with 0 <= lag <= observed.
func TestDriveOpenLoopOrder(t *testing.T) {
	const span = 30 * time.Millisecond
	gens, want := streams(t, 10_000, span, 7, 7, 8)
	total := 0
	for _, w := range want {
		total += len(w)
	}
	type sent struct{ gpu, idx int }
	var order []sent
	perGPU := make([]int, len(gens))
	held := make([][]chan int, len(gens)) // unanswered, oldest first
	release := func(g int) {
		for i := len(held[g]) - 1; i >= 0; i-- {
			held[g][i] <- perGPU[g] - len(held[g]) + i
		}
		held[g] = held[g][:0]
	}
	send := func(gpu int, keys []int64) <-chan int {
		idx := perGPU[gpu]
		if idx >= len(want[gpu]) {
			t.Fatalf("GPU %d: send %d, past the %d arrivals before the span", gpu, idx, len(want[gpu]))
		}
		if !slices.Equal(keys, want[gpu][idx].Keys) {
			t.Errorf("GPU %d send %d: keys %v, want the stream's %v", gpu, idx, keys, want[gpu][idx].Keys)
		}
		order = append(order, sent{gpu, idx})
		perGPU[gpu]++
		ch := make(chan int, 1)
		held[gpu] = append(held[gpu], ch)
		if len(held[gpu]) == 3 {
			release(gpu)
		}
		if len(order) == total {
			for g := range held {
				release(g)
			}
		}
		return ch
	}
	settled := make([]int, len(gens))
	stalls := DriveOpenLoop(context.Background(), gens, span, send, func(gpu, reply int, lag, observed time.Duration) {
		if reply != settled[gpu] {
			t.Errorf("GPU %d: settled reply %d, want %d (send order)", gpu, reply, settled[gpu])
		}
		settled[gpu]++
		if lag < 0 || lag > observed {
			t.Errorf("GPU %d reply %d: lag %v, observed %v, want 0 <= lag <= observed", gpu, reply, lag, observed)
		}
	})

	if len(order) != total {
		t.Fatalf("%d sends, want the %d arrivals before the span", len(order), total)
	}
	for i := 1; i < len(order); i++ {
		a, b := order[i-1], order[i]
		atA, atB := want[a.gpu][a.idx].At, want[b.gpu][b.idx].At
		if atA > atB || atA == atB && a.gpu > b.gpu {
			t.Fatalf("send %d: GPU %d at %v after GPU %d at %v, want arrival order, ties to the lower GPU", i, b.gpu, atB, a.gpu, atA)
		}
	}
	for g := range gens {
		if settled[g] != len(want[g]) {
			t.Errorf("GPU %d: %d replies settled, want %d", g, settled[g], len(want[g]))
		}
	}
	t.Logf("%d sends, %d stalls", total, stalls)
}

// TestDriveOpenLoopCancel: a cancelled context returns, with replies still
// outstanding, and so does one cancelled while the driver sleeps to a far
// arrival.
func TestDriveOpenLoopCancel(t *testing.T) {
	for _, tc := range []struct {
		name string
		qps  float64
	}{{"outstanding", 10_000}, {"sleeping", 0.01}} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			gens, _ := streams(t, tc.qps, 0, 1, 2)
			if tc.qps < 1 { // the first arrival is minutes away
				time.AfterFunc(10*time.Millisecond, cancel)
			}
			done := make(chan struct{})
			go func() {
				defer close(done)
				sends := 0
				DriveOpenLoop(ctx, gens, time.Hour, func(int, []int64) <-chan struct{} {
					if sends++; sends == 10 {
						cancel()
					}
					return make(chan struct{}) // never answered
				}, func(int, struct{}, time.Duration, time.Duration) {})
			}()
			select {
			case <-done:
			case <-time.After(10 * time.Second):
				t.Fatal("DriveOpenLoop still running 10 s after its context was cancelled")
			}
		})
	}
}

// TestDriveOpenLoopStall: time lost, here to a settle that sleeps well past
// generatorStall, is a machine stall: it is counted, and
// the schedule after it is shifted, not fired as a backlog, so no later lag
// reaches the time lost.
func TestDriveOpenLoopStall(t *testing.T) {
	const pause = 3 * generatorStall
	gens, want := streams(t, 2_000, 100*time.Millisecond, 3)
	sends := 0
	stalls := DriveOpenLoop(context.Background(), gens, 100*time.Millisecond, func(int, []int64) <-chan int {
		ch := make(chan int, 1)
		ch <- sends
		sends++
		return ch
	}, func(_, idx int, lag, _ time.Duration) {
		if idx == 4 {
			time.Sleep(pause)
		}
		if idx > 4 && lag >= 2*generatorStall {
			t.Errorf("request %d: lag %v after the pause, want below %v (shifted)", idx, lag, 2*generatorStall)
		}
	})
	if stalls < 1 {
		t.Errorf("%d stalls, want the pause counted", stalls)
	}
	if sends != len(want[0]) {
		t.Errorf("%d sends, want every one of the %d arrivals", sends, len(want[0]))
	}
}
