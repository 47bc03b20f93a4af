package main

import (
	"bytes"
	"errors"
	"runtime"
	"sort"
	"time"

	"ugache/internal/cache"
	"ugache/internal/cluster"
	"ugache/internal/serve"
)

// runClock lays the run out on the wall clock: a warm-up, then `windows`
// back-to-back measurement windows. All offsets are from epoch.
type runClock struct {
	epoch   time.Time
	warm    time.Duration
	window  time.Duration
	windows int
}

// start sets the epoch. The collection before it gives every run the same
// footing: the garbage of the set-ups and of input generation is gone, and
// the collector's next target follows from what the workload keeps alive,
// not from when the last cycle happened to end (peak_rss_mb moved between
// two levels 15 % apart without it).
func (c *runClock) start() {
	runtime.GC()
	c.epoch = time.Now()
}

func (c *runClock) since() time.Duration { return time.Since(c.epoch) }
func (c *runClock) end() time.Duration   { return c.warm + time.Duration(c.windows)*c.window }

// windowOf returns the measurement window an offset falls in, or -1 for the
// warm-up and anything past the last window.
func (c *runClock) windowOf(t time.Duration) int {
	if t < c.warm || t >= c.end() {
		return -1
	}
	return int((t - c.warm) / c.window)
}

// boundary is the offset at which window k starts (k == windows: the end).
func (c *runClock) boundary(k int) time.Duration { return c.warm + time.Duration(k)*c.window }

// tally counts what one driver saw in one window. An operation is sent in
// the window it was due (open loop) or completed (closed loop), and ends as
// exactly one of ok, shed, failed or mismatched.
type tally struct {
	sent, ok, shed, failed, mismatched int64
	partial                            int64 // the cluster.ErrPartial share of failed
	verified, withinSLO                int64
	simSec                             float64 // cluster: sum of the lookups' modelled critical paths
	latsMs                             []float64
	lagMs                              []float64
}

func (t *tally) merge(o *tally) {
	t.sent += o.sent
	t.ok += o.ok
	t.shed += o.shed
	t.failed += o.failed
	t.mismatched += o.mismatched
	t.partial += o.partial
	t.verified += o.verified
	t.withinSLO += o.withinSLO
	t.simSec += o.simSec
	t.latsMs = append(t.latsMs, o.latsMs...)
	t.lagMs = append(t.lagMs, o.lagMs...)
}

func (t *tally) bad() int64 { return t.shed + t.failed + t.mismatched }

// driverResult is everything one load-generating goroutine recorded.
type driverResult struct {
	windows []tally
	// whole counts every operation of the run, warm-up included, for the
	// cross-check against the program's own counters.
	whole   tally
	spans   *spanLog
	admitNs []float64
	stalls  int // open loop: times the schedule was shifted past a machine pause
	late    int // cluster: lookups that outlasted the router's default deadline
	err     error
}

func newDriverResult(ck *runClock, shard int) *driverResult {
	return &driverResult{windows: make([]tally, ck.windows), spans: newSpanLog(shard)}
}

// driveOpts are the knobs the traced and untraced runs set differently.
type driveOpts struct {
	verifyEvery int // byte-compare every Nth reply (1 = all) ...
	verifyPhase int // ... namely those whose index is verifyPhase modulo N
	spanEvery   int // record spans for every Nth operation (0 = none)
	latEvery    int // keep every Nth latency sample (0 = all); counts are never thinned
}

func (o *driveOpts) verifies(idx int) bool { return idx%o.verifyEvery == o.verifyPhase%o.verifyEvery }

// verifier byte-compares returned rows with the table's own.
type verifier struct {
	source     cache.RowSource
	entryBytes int
	buf        []byte
}

func newVerifier(b *built) *verifier {
	return &verifier{source: b.source, entryBytes: b.entryBytes, buf: make([]byte, b.entryBytes)}
}

// badRows counts the rows of a reply that differ from the table.
func (v *verifier) badRows(keys []int64, rows []byte) int {
	eb := v.entryBytes
	if len(rows) != len(keys)*eb {
		return len(keys)
	}
	bad := 0
	for i, k := range keys {
		if err := v.source.ReadRow(k, v.buf); err != nil || !bytes.Equal(v.buf, rows[i*eb:(i+1)*eb]) {
			bad++
		}
	}
	return bad
}

// settle files one finished operation under its window and the whole-run
// tally. checked says the reply was byte-compared, badRows how many of its
// rows differed.
func (dr *driverResult) settle(w int, latMs float64, err error, checked bool, badRows int, o *driveOpts) {
	each := func(t *tally) {
		t.sent++
		switch {
		case errors.Is(err, serve.ErrOverload):
			t.shed++
		case err != nil:
			t.failed++
			if errors.Is(err, cluster.ErrPartial) {
				t.partial++
			}
		case badRows > 0:
			t.mismatched++
		default:
			t.ok++
			if latMs <= requestSLOMs {
				t.withinSLO++
			}
		}
		if checked {
			t.verified++
		}
	}
	each(&dr.whole)
	if w >= 0 {
		each(&dr.windows[w])
		if err == nil && (o.latEvery <= 1 || dr.whole.sent%int64(o.latEvery) == 0) {
			dr.windows[w].latsMs = append(dr.windows[w].latsMs, latMs)
		}
	}
	if err != nil && !errors.Is(err, serve.ErrOverload) && !errors.Is(err, cluster.ErrPartial) && dr.err == nil {
		dr.err = err
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// inflight is one request a driver has handed to the server and not yet
// collected.
type inflight struct {
	ch      <-chan serve.Result
	idx     int
	start   time.Duration // intended arrival (open loop) or send time (closed loop)
	spanReq int           // request span ID when this operation is traced, else 0
	handed  time.Duration // when Handle returned, for the reply-wait span
}

// openLoopDriver sends reqs (sorted by arrival time, each tagged with its
// GPU) on their schedule, whatever the server does, and times each from its
// intended arrival. One goroutine does all the sending and collecting, and
// it paces by yielding the processor in a poll loop, not by sleeping: a
// sleeping Go process is woken by the kernel's timer, which on a virtual
// machine can tick only once a millisecond, and a generator that late would
// put its own lag into every latency it reports (workload.lag_p99_ms is the
// check). One poller, not one per GPU, leaves the second processor to the
// server. A GPU's requests complete in order, so only the oldest
// outstanding reply per GPU is polled.
//
// Handle never blocks, so nothing the server does can hold this goroutine
// up; when it nevertheless finds itself more than generatorStall behind, the
// whole machine was paused (a shared virtual machine can be, for a tenth of
// a second), server included. Firing the backlog at once would overflow the
// admission ring and fail operations for the pause's sake, so the rest of
// the schedule is shifted by the time lost instead, the stall is counted,
// and the run says so.
func openLoopDriver(srv *serve.Server, reqs []request, ck *runClock, v *verifier, o *driveOpts, dr *driverResult) {
	gpus := 0
	for i := range reqs {
		gpus = max(gpus, reqs[i].gpu+1)
	}
	queues := make([][]inflight, gpus)
	heads := make([]int, gpus)
	outstanding := 0
	shift := time.Duration(0) // total time lost to generator stalls so far

	collect := func(g int, res serve.Result) {
		f := queues[g][heads[g]]
		heads[g]++
		outstanding--
		if heads[g] == len(queues[g]) {
			queues[g], heads[g] = queues[g][:0], 0
		}
		now := ck.since()
		checked := res.Err == nil && o.verifies(f.idx)
		bad := 0
		if checked {
			bad = v.badRows(reqs[f.idx].keys, res.Rows)
		}
		dr.settle(ck.windowOf(f.start), ms(now-f.start), res.Err, checked, bad, o)
		if f.spanReq != 0 {
			dr.spans.add("reply-wait", f.spanReq, int64(f.idx), f.handed, now)
			dr.spans.setEnd(f.spanReq, now)
		}
	}
	send := func(i int) {
		r := &reqs[i]
		if r.announce != nil {
			srv.Prefetch(r.gpu, r.announce)
		}
		f := inflight{idx: i, start: r.at + shift}
		before := ck.since()
		f.ch = srv.Handle(r.gpu, r.keys)
		if w := ck.windowOf(f.start); w >= 0 {
			dr.windows[w].lagMs = append(dr.windows[w].lagMs, ms(before-f.start))
		}
		if o.spanEvery > 0 && i%o.spanEvery == 0 {
			f.handed = ck.since()
			f.spanReq = dr.spans.add("request", 0, int64(i), f.start, f.handed)
			dr.spans.add("serve.handle", f.spanReq, int64(i), before, f.handed)
			dr.admitNs = append(dr.admitNs, float64(f.handed-before))
		}
		queues[r.gpu] = append(queues[r.gpu], f)
		outstanding++
	}

	for next := 0; next < len(reqs) || outstanding > 0; {
		progressed := false
		for g := range queues {
			if heads[g] < len(queues[g]) {
				select {
				case res := <-queues[g][heads[g]].ch:
					collect(g, res)
					progressed = true
				default:
				}
			}
		}
		if next < len(reqs) {
			wait := reqs[next].at + shift - ck.since()
			if wait < -generatorStall {
				shift -= wait
				dr.stalls++
				wait = 0
			}
			if wait <= 0 {
				send(next)
				next++
				continue
			}
			if outstanding == 0 && wait > idleSleepOver {
				time.Sleep(wait - idleSleepOver/2)
				continue
			}
		}
		if !progressed {
			runtime.Gosched()
		}
	}
}

// generatorStall is how far behind its schedule an open-loop driver must
// find itself to conclude that the machine, not the server, stopped it: well
// past the 10 ms the Go scheduler can take to preempt a busy goroutine.
const generatorStall = 25 * time.Millisecond

// idleSleepOver is the gap to the next arrival above which an open-loop
// driver with nothing outstanding sleeps instead of polling; it wakes with
// half of it to spare, which covers a coarse kernel timer.
const idleSleepOver = 4 * time.Millisecond

// closedLoopDriver keeps depth requests outstanding on one GPU until the
// run ends, cycling through pool, and times each from its send. It blocks
// on the oldest outstanding reply, so it never spins.
func closedLoopDriver(srv *serve.Server, gpu int, pool [][]int64, depth int, ck *runClock, v *verifier, o *driveOpts, dr *driverResult) {
	ring := make([]inflight, depth)
	sent := 0
	issue := func(slot int) {
		f := inflight{idx: sent, start: ck.since()}
		f.ch = srv.Handle(gpu, pool[sent%len(pool)])
		if o.spanEvery > 0 && sent%o.spanEvery == 0 {
			f.handed = ck.since()
			f.spanReq = dr.spans.add("request", 0, int64(sent), f.start, f.handed)
			dr.spans.add("serve.handle", f.spanReq, int64(sent), f.start, f.handed)
			dr.admitNs = append(dr.admitNs, float64(f.handed-f.start))
		}
		ring[slot] = f
		sent++
	}
	for slot := range ring {
		issue(slot)
	}
	for done := 0; done < sent; done++ {
		slot := done % depth
		f := ring[slot]
		res := <-f.ch
		now := ck.since()
		keys := pool[f.idx%len(pool)]
		checked := res.Err == nil && o.verifies(f.idx)
		bad := 0
		if checked {
			bad = v.badRows(keys, res.Rows)
		}
		dr.settle(ck.windowOf(now), ms(now-f.start), res.Err, checked, bad, o)
		if f.spanReq != 0 {
			dr.spans.add("reply-wait", f.spanReq, int64(f.idx), f.handed, now)
			dr.spans.setEnd(f.spanReq, now)
		}
		if now < ck.end() {
			issue(slot)
		}
	}
}

// shippedDeadline is cluster.FrontConfig's default per-leg deadline, which
// clusterSetup has to raise (see there); a lookup that outlasts it would
// have come back partial from a router at its defaults.
const shippedDeadline = 50 * time.Millisecond

// clusterClient issues synchronous routed lookups at one node, back to
// back, round-robin over that node's GPUs.
func clusterClient(front *cluster.Front, node, gpus int, pool [][]int64, ck *runClock, v *verifier, o *driveOpts, dr *driverResult) (localLegs int64) {
	for i := 0; ck.since() < ck.end(); i++ {
		keys := pool[i%len(pool)]
		start := ck.since()
		res := front.Lookup(node, i%gpus, keys)
		now := ck.since()
		if now-start > shippedDeadline {
			dr.late++
		}
		if res.LocalKeys > 0 {
			localLegs++
		}
		checked := res.Err == nil && o.verifies(i)
		bad := 0
		if checked {
			bad = v.badRows(keys, res.Rows)
		}
		w := ck.windowOf(now)
		dr.settle(w, ms(now-start), res.Err, checked, bad, o)
		if w >= 0 && res.Err == nil {
			dr.windows[w].simSec += res.SimSeconds
		}
		if o.spanEvery > 0 && i%o.spanEvery == 0 {
			dr.spans.add("request", 0, int64(i), start, now)
		}
	}
	return localLegs
}

// windowStats are one window's end-to-end statistics over all drivers.
type windowStats struct {
	tally
	p50Ms, p99Ms, lagP99Ms float64
	p50Beyond, p99Beyond   int
}

// mergeWindows folds the drivers' tallies into per-window statistics and
// the whole-run tally.
func mergeWindows(ck *runClock, drivers []*driverResult) ([]windowStats, tally) {
	stats := make([]windowStats, ck.windows)
	var whole tally
	for _, dr := range drivers {
		whole.merge(&dr.whole)
		for w := range dr.windows {
			stats[w].merge(&dr.windows[w])
		}
	}
	for w := range stats {
		s := &stats[w]
		sort.Float64s(s.latsMs)
		sort.Float64s(s.lagMs)
		s.p50Ms, s.p50Beyond = percentile(s.latsMs, 0.50)
		s.p99Ms, s.p99Beyond = percentile(s.latsMs, 0.99)
		s.lagP99Ms, _ = percentile(s.lagMs, 0.99)
	}
	return stats, whole
}
