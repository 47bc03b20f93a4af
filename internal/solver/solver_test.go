package solver

import (
	"math"
	"strings"
	"testing"

	"ugache/internal/platform"
	"ugache/internal/rng"
	"ugache/internal/workload"
)

// zipfHotness builds a hotness vector with Zipf mass over a shuffled entry
// order, scaled to keysPerIter expected accesses.
func zipfHotness(n int, alpha, keysPerIter float64, seed uint64) workload.Hotness {
	r := rng.New(seed)
	perm := r.Perm(n)
	h := make(workload.Hotness, n)
	sum := 0.0
	for rank := 0; rank < n; rank++ {
		h[perm[rank]] = math.Pow(float64(rank+1), -alpha)
		sum += h[perm[rank]]
	}
	scale := keysPerIter / sum
	for i := range h {
		h[i] *= scale
	}
	return h
}

func testInput(t *testing.T, p *platform.Platform, n int, alpha float64, ratio float64) *Input {
	t.Helper()
	caps := make([]int64, p.N)
	for g := range caps {
		caps[g] = int64(float64(n) * ratio)
	}
	return &Input{
		P:          p,
		Hotness:    zipfHotness(n, alpha, 200000, 42),
		EntryBytes: 512,
		Capacity:   caps,
	}
}

func mustSolve(t *testing.T, pol Policy, in *Input) *Placement {
	t.Helper()
	pl, err := pol.Solve(in)
	if err != nil {
		t.Fatalf("%s: %v", pol.Name(), err)
	}
	if err := pl.Validate(in); err != nil {
		t.Fatalf("%s placement invalid: %v", pol.Name(), err)
	}
	return pl
}

func TestBlockBuilding(t *testing.T) {
	in := testInput(t, platform.ServerC(), 100000, 1.1, 0.1)
	c, err := newCtx(in)
	if err != nil {
		t.Fatal(err)
	}
	blocks := c.build()
	if len(blocks) == 0 || len(blocks) > in.blockBudget() {
		t.Fatalf("%d blocks for budget %d", len(blocks), in.blockBudget())
	}
	// Tiling.
	var prev int64
	for _, b := range blocks {
		if b.Start != prev || b.End <= b.Start {
			t.Fatalf("block range [%d, %d) after %d", b.Start, b.End, prev)
		}
		prev = b.End
	}
	if prev != 100000 {
		t.Fatalf("blocks cover %d", prev)
	}
	// Hotness is non-increasing across blocks (mean per entry).
	for i := 1; i < len(blocks); i++ {
		if blocks[i].HotPerEntry > blocks[i-1].HotPerEntry*1.0001 {
			t.Fatalf("block %d hotter than predecessor", i)
		}
	}
	// Size cap: ≤ ~0.5% of entries (allowing budget-driven doubling).
	for _, b := range blocks {
		if b.Entries() > 100000/50 {
			t.Fatalf("block of %d entries exceeds cap", b.Entries())
		}
	}
	// Mandatory cuts respected.
	cut := int64(12345)
	blocks2 := c.build(cut)
	found := false
	for _, b := range blocks2 {
		if b.Start == cut {
			found = true
		}
		if b.Start < cut && b.End > cut {
			t.Fatal("block straddles mandatory cut")
		}
	}
	if !found {
		t.Fatal("cut not present")
	}
}

func TestReplicationPolicy(t *testing.T) {
	p := platform.ServerC()
	in := testInput(t, p, 50000, 1.1, 0.12)
	pl := mustSolve(t, Replication{}, in)
	stats := pl.Stats(in.Hotness)
	for g, s := range stats {
		if s.Remote > 1e-9 {
			t.Fatalf("gpu %d: replication must not read remote (%g)", g, s.Remote)
		}
		if s.Local < 0.5 {
			t.Fatalf("gpu %d: local hit %g too low for zipf 1.1 @12%%", g, s.Local)
		}
		if math.Abs(s.Local+s.Host-1) > 1e-9 {
			t.Fatalf("gpu %d: fractions do not sum: %+v", g, s)
		}
	}
	used := pl.CapacityUsed()
	for g, u := range used {
		if u > in.Capacity[g] {
			t.Fatalf("gpu %d over capacity", g)
		}
		if u < in.Capacity[g]*95/100 {
			t.Fatalf("gpu %d underuses capacity: %d of %d", g, u, in.Capacity[g])
		}
	}
}

func TestPartitionPolicy(t *testing.T) {
	p := platform.ServerC()
	in := testInput(t, p, 50000, 1.1, 0.08)
	pl := mustSolve(t, Partition{}, in)
	stats := pl.Stats(in.Hotness)
	// Global hit must beat replication's at the same per-GPU capacity.
	rep := mustSolve(t, Replication{}, in)
	repStats := rep.Stats(in.Hotness)
	for g := range stats {
		globalPart := stats[g].Local + stats[g].Remote
		globalRep := repStats[g].Local + repStats[g].Remote
		if globalPart <= globalRep {
			t.Fatalf("gpu %d: partition global hit %g not above replication %g",
				g, globalPart, globalRep)
		}
		// Partition's local hit is roughly global/G.
		if stats[g].Local > globalPart/4 {
			t.Fatalf("gpu %d: partition local hit %g suspiciously high (global %g)",
				g, stats[g].Local, globalPart)
		}
	}
	// Distinct entries cached = sum of capacities (within one block of
	// rounding).
	var distinct int64
	for _, b := range pl.Blocks {
		for _, s := range b.Store {
			if s {
				distinct += b.Entries()
				break
			}
		}
	}
	var total int64
	for _, c := range in.Capacity {
		total += c
	}
	if distinct < total*95/100 {
		t.Fatalf("partition caches %d distinct of %d capacity", distinct, total)
	}
}

func TestPartitionUnconnectedFallsBackToHost(t *testing.T) {
	p := platform.ServerB()
	in := testInput(t, p, 20000, 1.1, 0.05)
	pl := mustSolve(t, Partition{}, in)
	// Some block owned by a GPU in the other quad must be host for reader 0.
	fellBack := false
	for _, b := range pl.Blocks {
		owner := -1
		for g, s := range b.Store {
			if s {
				owner = g
			}
		}
		if owner >= 4 && b.Access[0] == p.Host() {
			fellBack = true
		}
	}
	if !fellBack {
		t.Fatal("expected host fallback for cross-quad reads")
	}
}

func TestCliqueCover(t *testing.T) {
	for _, tc := range []struct {
		p    *platform.Platform
		want int
	}{
		{platform.ServerA(), 1},
		{platform.ServerB(), 2},
		{platform.ServerC(), 1},
	} {
		cl := CliqueCover(tc.p)
		if len(cl) != tc.want {
			t.Fatalf("%s: %d cliques, want %d", tc.p.Name, len(cl), tc.want)
		}
	}
	cl := CliqueCover(platform.ServerB())
	if len(cl[0]) != 4 || len(cl[1]) != 4 {
		t.Fatalf("DGX-1 cliques %v", cl)
	}
}

func TestCliquePartitionNoCrossCliqueAccess(t *testing.T) {
	p := platform.ServerB()
	in := testInput(t, p, 20000, 1.1, 0.05)
	pl := mustSolve(t, CliquePartition{}, in)
	cliqueOf := map[int]int{}
	for ci, cl := range CliqueCover(p) {
		for _, g := range cl {
			cliqueOf[g] = ci
		}
	}
	for _, b := range pl.Blocks {
		for i := 0; i < p.N; i++ {
			src := b.Access[i]
			if src == p.Host() {
				continue
			}
			if cliqueOf[int(src)] != cliqueOf[i] {
				t.Fatalf("gpu %d reads across cliques from %d", i, src)
			}
		}
	}
	// Each clique caches its own copy of the hottest block.
	hot := pl.Blocks[0]
	seen := map[int]bool{}
	for g, s := range hot.Store {
		if s {
			seen[cliqueOf[g]] = true
		}
	}
	if len(seen) != 2 {
		t.Fatalf("hottest block stored in %d cliques, want 2", len(seen))
	}
}

func TestRepPartBetweenRepAndPart(t *testing.T) {
	p := platform.ServerC()
	in := testInput(t, p, 50000, 1.2, 0.08)
	rep := mustSolve(t, Replication{}, in)
	part := mustSolve(t, Partition{}, in)
	rp := mustSolve(t, RepPart{}, in)
	best := math.Min(maxF(rep.EstTimes), maxF(part.EstTimes))
	if maxF(rp.EstTimes) > best*1.0001 {
		t.Fatalf("rep-part %g worse than best of rep/part %g", maxF(rp.EstTimes), best)
	}
}

func TestUGacheBeatsBaselines(t *testing.T) {
	p := platform.ServerC()
	for _, ratio := range []float64{0.04, 0.08, 0.15} {
		in := testInput(t, p, 50000, 1.1, ratio)
		rep := mustSolve(t, Replication{}, in)
		part := mustSolve(t, Partition{}, in)
		ug := mustSolve(t, UGache{}, in)
		best := math.Min(maxF(rep.EstTimes), maxF(part.EstTimes))
		if got := maxF(ug.EstTimes); got > best*1.02 {
			t.Fatalf("ratio %g: ugache %g worse than best baseline %g", ratio, got, best)
		}
	}
}

func TestUGacheBalancesLocalAndGlobal(t *testing.T) {
	// Fig. 14's trend: at low cache ratio UGache behaves like partition; at
	// a high ratio its local hit rate rises far above partition's while the
	// global hit rate stays close.
	p := platform.ServerC()
	lowIn := testInput(t, p, 50000, 1.2, 0.02)
	highIn := testInput(t, p, 50000, 1.2, 0.10)

	ugLow := mustSolve(t, UGache{}, lowIn).Stats(lowIn.Hotness)
	ugHigh := mustSolve(t, UGache{}, highIn).Stats(highIn.Hotness)
	partHigh := mustSolve(t, Partition{}, highIn).Stats(highIn.Hotness)

	if ugHigh[0].Local <= partHigh[0].Local+0.1 {
		t.Fatalf("high ratio: ugache local %g should exceed partition local %g",
			ugHigh[0].Local, partHigh[0].Local)
	}
	ugGlobal := ugHigh[0].Local + ugHigh[0].Remote
	partGlobal := partHigh[0].Local + partHigh[0].Remote
	if ugGlobal < partGlobal-0.08 {
		t.Fatalf("high ratio: ugache global %g sacrificed too much vs partition %g",
			ugGlobal, partGlobal)
	}
	// The local hit rate rises with capacity (Fig. 14's left-to-right
	// trend); at low ratio it stays well below the high-ratio value.
	if ugLow[0].Local > ugHigh[0].Local-0.05 {
		t.Fatalf("local hit should rise with capacity: low %g, high %g",
			ugLow[0].Local, ugHigh[0].Local)
	}
}

func TestUGacheDeterminism(t *testing.T) {
	p := platform.ServerC()
	in1 := testInput(t, p, 20000, 1.1, 0.06)
	in2 := testInput(t, p, 20000, 1.1, 0.06)
	pl1 := mustSolve(t, UGache{}, in1)
	pl2 := mustSolve(t, UGache{}, in2)
	if len(pl1.Blocks) != len(pl2.Blocks) {
		t.Fatal("block counts differ")
	}
	for bi := range pl1.Blocks {
		for g := range pl1.Blocks[bi].Store {
			if pl1.Blocks[bi].Store[g] != pl2.Blocks[bi].Store[g] {
				t.Fatalf("nondeterministic store at block %d gpu %d", bi, g)
			}
			if pl1.Blocks[bi].Access[g] != pl2.Blocks[bi].Access[g] {
				t.Fatalf("nondeterministic access at block %d gpu %d", bi, g)
			}
		}
	}
}

func TestUGacheOnDGX1UsesOnlyReachableSources(t *testing.T) {
	p := platform.ServerB()
	in := testInput(t, p, 30000, 1.1, 0.06)
	pl := mustSolve(t, UGache{}, in) // Validate() inside checks connectivity
	// And it should beat clique-partition, the best launchable baseline.
	cp := mustSolve(t, CliquePartition{}, in)
	if maxF(pl.EstTimes) > maxF(cp.EstTimes)*1.02 {
		t.Fatalf("ugache %g worse than clique-partition %g",
			maxF(pl.EstTimes), maxF(cp.EstTimes))
	}
}

func TestOptimalLPSymmetric(t *testing.T) {
	p := platform.ServerC()
	in := testInput(t, p, 30000, 1.2, 0.06)
	in.BlockBudget = 128
	opt := mustSolve(t, OptimalLP{}, in)
	if opt.LowerBound <= 0 {
		t.Fatal("no lower bound")
	}
	// The realized placement's modelled time should be near the LP bound.
	if got := maxF(opt.EstTimes); got > opt.LowerBound*1.15 {
		t.Fatalf("realized %g far above LP bound %g", got, opt.LowerBound)
	}
	// UGache within a modest factor of optimal (paper reports ~2% average;
	// we allow 15% on this synthetic instance).
	in2 := testInput(t, p, 30000, 1.2, 0.06)
	ug := mustSolve(t, UGache{}, in2)
	if got := maxF(ug.EstTimes); got > opt.LowerBound*1.15 {
		t.Fatalf("ugache %g vs optimal bound %g (gap %.1f%%)",
			got, opt.LowerBound, 100*(got/opt.LowerBound-1))
	}
}

// TestOptimalLPRefusesAsymmetricInputs: the reference has one formulation,
// the count LP, and refuses every input it does not cover — DGX-1's
// cube-mesh, alone and clustered, and unequal capacities — with an error that
// names what differs, while UGache still places each of them.
func TestOptimalLPRefusesAsymmetricInputs(t *testing.T) {
	cluster, err := platform.ClusterOf(platform.ServerBConfig(), platform.DefaultNetwork(2))
	if err != nil {
		t.Fatal(err)
	}
	apart, err := platform.New(platform.Config{Name: "2xV100-apart", Kind: platform.HardWired, GPU: platform.V100x16, N: 2,
		PCIeBW: 12e9, DRAMBW: 140e9, PairBW: [][]float64{{0, 0}, {0, 0}}})
	if err != nil {
		t.Fatal(err)
	}
	unequal := testInput(t, platform.ServerC(), 5000, 1.2, 0.06)
	unequal.Capacity[3]++
	for _, tc := range []struct {
		in   *Input
		want string
	}{
		{testInput(t, platform.ServerB(), 5000, 1.2, 0.06), "no exact LP for ServerB-8xV100: GPU 0 reads GPU 3 at 50 GB/s, GPU 0 reads GPU 1 at 25 GB/s"},
		{testInput(t, cluster, 5000, 1.2, 0.06), "no exact LP for ServerB-8xV100-x2: GPU 0 reads GPU 3 at 50 GB/s"},
		{testInput(t, apart, 5000, 1.2, 0.06), "no exact LP for 2xV100-apart: GPUs 0 and 1 share no link"},
		{unequal, "no exact LP for ServerC-8xA100: GPU 3 caches 301 entries, GPU 0 300"},
	} {
		if pl, err := (OptimalLP{}).Solve(tc.in); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: placement %v, error %v; want an error naming %q", tc.in.P.Name, pl != nil, err, tc.want)
		}
		mustSolve(t, UGache{}, tc.in)
	}
}

func TestPlacementQueries(t *testing.T) {
	p := platform.ServerC()
	in := testInput(t, p, 10000, 1.1, 0.1)
	pl := mustSolve(t, UGache{}, in)
	// SourceOf is consistent with blocks.
	for e := int64(0); e < 10000; e += 997 {
		src := pl.SourceOf(3, e)
		b := pl.Blocks[pl.BlockOf(e)]
		if b.Access[3] != src {
			t.Fatalf("SourceOf mismatch at %d", e)
		}
		if src != p.Host() && int(src) == 3 && !pl.StoredOn(3, e) {
			t.Fatal("local access without storage")
		}
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	p := platform.ServerC()
	in := testInput(t, p, 10000, 1.1, 0.1)
	pl := mustSolve(t, Replication{}, in)
	// Point an access at a non-storing GPU.
	for bi := range pl.Blocks {
		b := &pl.Blocks[bi]
		if !b.Store[2] {
			b.Access[0] = 2
			if err := pl.Validate(in); err == nil {
				t.Fatal("corrupted access accepted")
			}
			return
		}
	}
	t.Skip("no uncached block to corrupt")
}

func TestPolicyByName(t *testing.T) {
	for _, name := range []string{"replication", "partition", "clique-partition", "rep-part", "ugache", "optimal"} {
		if _, err := PolicyByName(name); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	for _, name := range []string{"nope", "exact"} {
		if _, err := PolicyByName(name); err == nil {
			t.Fatalf("unknown policy %q accepted", name)
		}
	}
}

func TestInputValidation(t *testing.T) {
	p := platform.ServerC()
	good := testInput(t, p, 1000, 1.1, 0.1)
	cases := []func(*Input){
		func(in *Input) { in.P = nil },
		func(in *Input) { in.Hotness = nil },
		func(in *Input) { in.EntryBytes = 0 },
		func(in *Input) { in.Capacity = in.Capacity[:2] },
		func(in *Input) { in.Capacity[0] = -1 },
		func(in *Input) { in.Hotness[5] = math.NaN() },
		func(in *Input) { in.BlockBudget = -3 },
	}
	for i, corrupt := range cases {
		in := *good
		in.Hotness = append(workload.Hotness(nil), good.Hotness...)
		in.Capacity = append([]int64(nil), good.Capacity...)
		corrupt(&in)
		for _, pol := range []Policy{Replication{}, UGache{}, OptimalLP{}} {
			if _, err := pol.Solve(&in); err == nil {
				t.Fatalf("case %d accepted by %s", i, pol.Name())
			}
		}
	}
}

func TestEstimateModelSanity(t *testing.T) {
	// More capacity can only help (weakly) under every policy.
	p := platform.ServerC()
	for _, pol := range []Policy{Replication{}, Partition{}, UGache{}} {
		prev := math.Inf(1)
		for _, ratio := range []float64{0.02, 0.06, 0.12, 0.2} {
			in := testInput(t, p, 30000, 1.1, ratio)
			pl := mustSolve(t, pol, in)
			got := maxF(pl.EstTimes)
			if got > prev*1.05 {
				t.Fatalf("%s: time grew with capacity: %g -> %g at %g",
					pol.Name(), prev, got, ratio)
			}
			prev = got
		}
	}
}

func BenchmarkUGacheSolve(b *testing.B) {
	p := platform.ServerC()
	in := &Input{
		P:          p,
		Hotness:    zipfHotness(200000, 1.1, 500000, 1),
		EntryBytes: 512,
		Capacity:   make([]int64, p.N),
	}
	for g := range in.Capacity {
		in.Capacity[g] = 16000
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (UGache{}).Solve(in); err != nil {
			b.Fatal(err)
		}
	}
}

func TestStorageSummary(t *testing.T) {
	// Hand-built 2-GPU placement: block 0 replicated, block 1 partitioned,
	// block 2 uncached. With 2 GPUs a "partial" class cannot exist.
	pl := &Placement{
		NumGPUs: 2,
		Blocks: []Block{
			{Start: 0, End: 10, HotPerEntry: 2, Store: []bool{true, true}},
			{Start: 10, End: 30, HotPerEntry: 1, Store: []bool{true, false}},
			{Start: 30, End: 100, HotPerEntry: 0.1, Store: []bool{false, false}},
		},
	}
	sum := pl.StorageSummary()
	if sum.ReplicatedBlocks != 1 || sum.PartitionedBlocks != 1 || sum.UncachedBlocks != 1 || sum.PartialBlocks != 0 {
		t.Fatalf("block classes: %+v", sum)
	}
	if sum.ReplicatedEntries != 10 || sum.PartitionedEntries != 20 || sum.UncachedEntries != 70 {
		t.Fatalf("entry classes: %+v", sum)
	}
	if math.Abs(sum.ReplicatedMass-20) > 1e-9 || math.Abs(sum.PartitionedMass-20) > 1e-9 || math.Abs(sum.UncachedMass-7) > 1e-9 {
		t.Fatalf("mass classes: %+v", sum)
	}

	// A solved UGache placement must be fully classified: every block in
	// exactly one class, masses summing to the total hotness mass.
	in := testInput(t, platform.ServerA(), 50000, 1.1, 0.08)
	upl := mustSolve(t, UGache{}, in)
	us := upl.StorageSummary()
	if got := us.ReplicatedBlocks + us.PartialBlocks + us.PartitionedBlocks + us.UncachedBlocks; got != len(upl.Blocks) {
		t.Fatalf("classified %d of %d blocks", got, len(upl.Blocks))
	}
	if got := us.ReplicatedEntries + us.PartialEntries + us.PartitionedEntries + us.UncachedEntries; got != upl.NumEntries() {
		t.Fatalf("classified %d of %d entries", got, upl.NumEntries())
	}
	totalMass := 0.0
	for bi := range upl.Blocks {
		totalMass += upl.Blocks[bi].Mass()
	}
	gotMass := us.ReplicatedMass + us.PartialMass + us.PartitionedMass + us.UncachedMass
	if math.Abs(gotMass-totalMass) > 1e-6*totalMass {
		t.Fatalf("classified mass %g of %g", gotMass, totalMass)
	}
}
