package solver

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"ugache/internal/platform"
)

// presenceInput is the benchmark harness's problem on platform p: the presence
// hotness of a Zipf(alpha) key stream, every GPU caching ratio of the entries.
func presenceInput(tb testing.TB, p *platform.Platform, n int, alpha, ratio float64, entryBytes int) *Input {
	return &Input{P: p, Hotness: presenceHotness(tb, int64(n), alpha, 42), EntryBytes: entryBytes,
		Capacity: uniformCapacity(p, n, ratio)}
}

// switchPlatform is a Server C of g GPUs.
func switchPlatform(tb testing.TB, g int) *platform.Platform {
	cfg := platform.ServerCConfig()
	cfg.N = g
	p, err := platform.New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return p
}

// TestSymmetricRealisationMeetsBound: on a symmetric platform the placement
// both LP policies ship costs what the LP priced, and wherever traffic is left
// on the fallback tier — more cache would still help, the LP's capacity row is
// tight — every GPU's cache is full. The grid is the two symmetric paper
// platforms by skew, cache ratio and entry size (a fifth of it under -short
// and the race detector).
func TestSymmetricRealisationMeetsBound(t *testing.T) {
	const n = 200_000
	cell := 0
	for _, alpha := range []float64{0.8, 1.05, 1.2, 1.4} {
		hot := presenceHotness(t, n, alpha, 42)
		for _, p := range []*platform.Platform{platform.ServerA(), platform.ServerC()} {
			for _, ratio := range []float64{0.02, 0.05, 0.08, 0.12, 0.20} {
				for _, entryBytes := range []int{512, 1536} {
					if cell++; (testing.Short() || goldenShort) && cell%5 != 0 {
						continue
					}
					in := &Input{P: p, Hotness: hot, EntryBytes: entryBytes, Capacity: uniformCapacity(p, n, ratio)}
					for _, pol := range []Policy{UGache{}, OptimalLP{}} {
						name := fmt.Sprintf("%s alpha %g ratio %g, %d B, %s", p.Name, alpha, ratio, entryBytes, pol.Name())
						pl := mustSolve(t, pol, in)
						if pl.LowerBound <= 0 {
							t.Fatalf("%s: no lower bound", name)
						}
						if r := maxF(pl.EstTimes) / pl.LowerBound; r > 1.005 {
							t.Errorf("%s: est/bound %.4f with %d blocks", name, r, len(pl.Blocks))
						}
						if len(pl.Blocks) >= 1000 {
							t.Errorf("%s: %d blocks, the paper keeps under one thousand", name, len(pl.Blocks))
						}
						tight := false
						for _, b := range pl.Blocks {
							tight = tight || b.mass() > 0 && b.Access[0] == in.fallback()
						}
						for g, used := range pl.CapacityUsed() {
							if tight && float64(used) < 0.99*float64(in.Capacity[g]) {
								t.Errorf("%s: gpu %d caches %d of %d entries", name, g, used, in.Capacity[g])
							}
						}
					}
				}
			}
		}
	}
}

// TestRemoteReadsSpreadPerReader: the LP prices a reader's remote reads spread
// evenly over its G-1 links, and the model charges it the busiest one, so every
// (reader, source) pair carries its even share — not merely every source
// summed over its readers, which left single links 1.13-1.31x over.
func TestRemoteReadsSpreadPerReader(t *testing.T) {
	for name, in := range map[string]*Input{
		"serverA-400k":            pinnedInputs[0].build(t),
		"serverC alpha 1.2 at 2%": presenceInput(t, platform.ServerC(), 200_000, 1.2, 0.02, 1536),
	} {
		pl := mustSolve(t, UGache{}, in)
		g := in.P.N
		vol := volumes(in, pl.Blocks, (*Block).mass)
		for i := range vol {
			remote := 0.0
			for j := 0; j < g; j++ {
				if j != i {
					remote += vol[i][j]
				}
			}
			for j := 0; j < g; j++ {
				if even := remote / float64(g-1); j != i && math.Abs(vol[i][j]-even) > 0.02*even {
					t.Errorf("%s: gpu %d pulls %.4g from gpu %d, even share %.4g", name, i, vol[i][j], j, even)
				}
			}
		}
	}
}

// checkPlan realizes the count distribution frac over c's blocks and checks
// the result against the plan: the blocks tile and respect capacity and
// reachability (Placement.Validate), and every rank is stored on exactly as
// many GPUs as splitCounts gave it — higher counts first within a block. It
// returns the realization's error; fits reports whether the plan leaves every
// GPU a spare entry per striped sub-block, which is when an error is a bug.
func checkPlan(t *testing.T, c *ctx, frac func(b, cnt int) float64) (fits bool, err error) {
	t.Helper()
	g := c.in.P.N
	blocks := c.build()
	planned := make([]int, c.numEntries())
	x := make([]float64, len(blocks)*(g+1))
	var replicas, striped int64
	for b := range blocks {
		r := blocks[b].Start
		dist := x[b*(g+1) : (b+1)*(g+1)]
		for cnt := range dist {
			dist[cnt] = frac(b, cnt)
		}
		sizes := splitCounts(blocks[b].Entries(), dist)
		for cnt := g; cnt >= 0; cnt-- {
			n := sizes[cnt]
			if n < 0 {
				t.Fatalf("block %d: %d entries at count %d", b, n, cnt)
			}
			for end := r + n; r < end; r++ {
				planned[r] = cnt
			}
			replicas += n * int64(cnt)
			if n > 0 && cnt > 0 && cnt < g {
				striped++
			}
		}
		if r != blocks[b].End {
			t.Fatalf("block %d: counts cover ranks up to %d of %d", b, r, blocks[b].End)
		}
	}
	fits = (replicas+int64(g)-1)/int64(g)+striped <= c.in.Capacity[0]
	out, err := realizeSymmetric(c, blocks, x)
	if err != nil {
		return fits, err
	}
	if err := newPlacement(c, "plan", out).Validate(c.in); err != nil {
		t.Fatal(err)
	}
	for _, b := range out {
		holders := 0
		for _, s := range b.Store {
			if s {
				holders++
			}
		}
		for r := b.Start; r < b.End; r++ {
			if holders != planned[r] {
				t.Fatalf("rank %d of block [%d, %d) is on %d GPUs, the plan says %d", r, b.Start, b.End, holders, planned[r])
			}
		}
		for i, src := range b.Access {
			if (src == c.in.fallback()) != (holders == 0) {
				t.Fatalf("block [%d, %d) on %d GPUs: gpu %d reads source %d", b.Start, b.End, holders, i, src)
			}
		}
	}
	return fits, nil
}

// TestRealizeSymmetricEdgeCases: plans the striping cannot take at face value.
func TestRealizeSymmetricEdgeCases(t *testing.T) {
	allAt := func(cnt int) func(b, c int) float64 {
		return func(b, c int) float64 {
			if c == cnt {
				return 1
			}
			return 0
		}
	}
	ctxOf := func(p *platform.Platform, n int, capacity int64) *ctx {
		in := &Input{P: p, Hotness: zipfHotness(n, 1.1, 1000, 7), EntryBytes: 64, Capacity: make([]int64, p.N)}
		for g := range in.Capacity {
			in.Capacity[g] = capacity
		}
		c, err := newCtx(in)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	// Sub-blocks of fewer than G entries (the hot levels' blocks are single
	// entries): some strips are empty, the plan is still placed whole.
	for cnt := 0; cnt <= 8; cnt++ {
		if _, err := checkPlan(t, ctxOf(platform.ServerC(), 300, 300), allAt(cnt)); err != nil {
			t.Errorf("count %d on 8 GPUs: %v", cnt, err)
		}
	}
	// A plan that does not fit is an error, not a placement with replicas
	// missing: two copies of 300 entries over 4 caches of 100, and anything at
	// all over no cache.
	if _, err := checkPlan(t, ctxOf(platform.ServerA(), 300, 100), allAt(2)); err == nil {
		t.Error("600 replicas placed in 400 slots")
	}
	if _, err := checkPlan(t, ctxOf(platform.ServerA(), 300, 0), allAt(1)); err == nil {
		t.Error("a replica placed with no capacity")
	}
	if _, err := checkPlan(t, ctxOf(platform.ServerA(), 300, 0), allAt(0)); err != nil {
		t.Errorf("no capacity, nothing planned: %v", err)
	}
	// One GPU: counts 0 and 1 are both whole blocks.
	if _, err := checkPlan(t, ctxOf(switchPlatform(t, 1), 300, 150), func(b, c int) float64 { return 0.5 }); err != nil {
		t.Errorf("one GPU: %v", err)
	}
	// Through the policies: no capacity, one GPU, and the clustered platform,
	// whose fallback is the network tier.
	cluster, err := platform.ClusterOf(platform.ServerAConfig(), platform.DefaultNetwork(2))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []*ctx{ctxOf(platform.ServerC(), 2000, 0), ctxOf(switchPlatform(t, 1), 2000, 150), ctxOf(cluster, 2000, 150)} {
		for _, pol := range []Policy{UGache{}, OptimalLP{}} {
			pl := mustSolve(t, pol, c.in)
			if r := maxF(pl.EstTimes) / pl.LowerBound; r > 1.02 {
				t.Errorf("%s, %d entries cached, %s: est/bound %.4f", c.in.P.Name, c.in.Capacity[0], pol.Name(), r)
			}
			for _, b := range pl.Blocks {
				if b.Access[0] == c.in.P.Host() && c.in.P.HasNetwork() {
					t.Fatalf("%s: block [%d, %d) reads the host on a cluster", pol.Name(), b.Start, b.End)
				}
			}
		}
	}
}

// TestSymmetricSolveIsReproducible: the same input solves to the same bytes
// twice.
func TestSymmetricSolveIsReproducible(t *testing.T) {
	in := presenceInput(t, platform.ServerC(), 50_000, 1.05, 0.05, 512)
	for _, pol := range []Policy{UGache{}, OptimalLP{}} {
		first, again := encodePlacement(mustSolve(t, pol, in)), encodePlacement(mustSolve(t, pol, in))
		if !bytes.Equal(first, again) {
			t.Errorf("%s: solved twice, two different placements", pol.Name())
		}
	}
}

// FuzzRealizeSymmetric realizes arbitrary count distributions on 1-8 GPUs at
// arbitrary capacities: whatever comes back tiles, respects capacity and holds
// every planned replica (checkPlan), and a plan that leaves room for the
// striping's one-entry-per-strip rounding is never refused.
func FuzzRealizeSymmetric(f *testing.F) {
	f.Add(byte(7), uint16(2000), uint16(150), []byte{0, 0, 0, 0, 0, 0, 0, 0, 1}) // everything replicated
	f.Add(byte(7), uint16(2000), uint16(250), []byte{1, 9, 0, 0, 0, 0, 0, 0, 3}) // host, partition, replicate
	f.Add(byte(3), uint16(777), uint16(777), []byte{0, 1, 2, 3, 4, 5, 6})        // every block fractional
	f.Add(byte(7), uint16(40), uint16(40), []byte{0, 0, 0, 1})                   // strips of under one entry
	f.Add(byte(0), uint16(500), uint16(100), []byte{1, 1})                       // one GPU
	f.Add(byte(5), uint16(900), uint16(0), []byte{1, 0, 0, 1})                   // no capacity
	f.Add(byte(3), uint16(300), uint16(151), []byte{0, 0, 1})                    // two copies, one spare entry
	f.Fuzz(func(t *testing.T, gpus byte, entries, capacity uint16, weights []byte) {
		p := switchPlatform(t, 1+int(gpus%8))
		n := max(int(entries), p.N)
		in := &Input{P: p, Hotness: zipfHotness(n, 1.1, 1000, uint64(len(weights))), EntryBytes: 64,
			Capacity: make([]int64, p.N)}
		for g := range in.Capacity {
			in.Capacity[g] = int64(capacity)
		}
		c, err := newCtx(in)
		if err != nil {
			t.Fatal(err)
		}
		frac := func(b, cnt int) float64 {
			if len(weights) == 0 {
				return 0
			}
			return float64(weights[(b*(p.N+1)+cnt)%len(weights)])
		}
		if fits, err := checkPlan(t, c, frac); err != nil && fits {
			t.Fatalf("a plan that fits was refused: %v", err)
		}
	})
}
