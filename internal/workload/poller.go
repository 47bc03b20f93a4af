package workload

import (
	"context"
	"runtime"
	"time"
)

// generatorStall is how far behind DriveOpenLoop must be to conclude that
// the machine, not the server, stopped it: past the 10 ms the Go scheduler
// can take to preempt a busy goroutine. idleSleepOver is the gap to the next
// arrival above which, with nothing outstanding, it sleeps; it
// wakes with half of it to spare, which covers a coarse kernel timer.
// yieldEvery is how many empty polls it makes per yield: a server goroutine
// that a send just woke goes on the poller's own processor, and the runtime
// lets an idle processor take it only after a few microseconds, so a poller
// that yields on every empty poll runs the server in its own place and
// notices replies late. On two vCPUs at 80k req/s, observed p50 read
// 110–200 µs yielding every poll and 78–93 µs every 16th (5 alternated
// runs; 1–3 µs more at 5k and 20k).
const (
	generatorStall = 25 * time.Millisecond
	idleSleepOver  = 4 * time.Millisecond
	yieldEvery     = 16
)

// DriveOpenLoop offers the streams of gens, gens[g] to GPU g, on their
// schedule whatever the server does, until every arrival before span is sent
// and settled or ctx is done (replies outstanding then are not settled). The
// caller's goroutine merges the streams by intended arrival, ties to the
// lower GPU, sends a copy of each request's keys, and settles each reply with
// its lag (intended arrival to send) and observed latency (intended arrival
// to reply noticed), so the driver's lag cannot hide the server's queueing.
//
// It paces by yielding the processor in a poll loop, not by sleeping: the
// kernel timer that wakes a sleeping Go process can tick only once a
// millisecond on a virtual machine, and a driver that late would put its own
// lag into every latency it reports. A GPU's replies are taken in send order,
// so only the oldest outstanding one per GPU is polled. send must not block
// (serve.Server.Handle never does), so a driver more than generatorStall
// behind was paused with the whole machine, and firing the backlog at once
// would overflow the server's admission for the pause's sake: the rest of
// the schedule shifts by the time lost, and the count of such stalls is
// returned.
func DriveOpenLoop[R any](ctx context.Context, gens []*OpenLoop, span time.Duration,
	send func(gpu int, keys []int64) <-chan R, settle func(gpu int, reply R, lag, observed time.Duration)) (stalls int) {
	type pending struct {
		reply         <-chan R
		intended, lag time.Duration // from start
	}
	next := make([]OpenLoopRequest, len(gens))
	for g, gen := range gens {
		gen.Next(&next[g])
	}
	queues := make([][]pending, len(gens))
	outstanding, empty, start := 0, 0, time.Now()
	var shift time.Duration
	for ctx.Err() == nil {
		polled := outstanding
		for g, q := range queues {
			if len(q) == 0 {
				continue
			}
			select {
			case reply := <-q[0].reply:
				queues[g], outstanding = q[1:], outstanding-1
				settle(g, reply, q[0].lag, time.Since(start)-q[0].intended)
			default:
			}
		}
		g := -1
		for i := range next {
			if next[i].At < span && (g < 0 || next[i].At < next[g].At) {
				g = i
			}
		}
		if g < 0 && outstanding == 0 {
			break
		}
		if g >= 0 {
			wait := next[g].At + shift - time.Since(start)
			if -wait > generatorStall {
				shift, stalls = shift-wait, stalls+1
			}
			if wait <= 0 {
				p := pending{intended: next[g].At + shift}
				p.lag, p.reply = time.Since(start)-p.intended, send(g, append([]int64(nil), next[g].Keys...))
				queues[g], outstanding = append(queues[g], p), outstanding+1
				gens[g].Next(&next[g])
				continue
			}
			if outstanding == 0 && wait > idleSleepOver {
				select {
				case <-time.After(wait - idleSleepOver/2):
				case <-ctx.Done():
				}
				continue
			}
		}
		if outstanding == polled {
			if empty++; empty%yieldEvery == 0 {
				runtime.Gosched()
			}
		}
	}
	return stalls
}
