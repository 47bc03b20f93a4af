package cache

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"

	"ugache/internal/emb"
	"ugache/internal/hashtable"
	"ugache/internal/memsim"
	"ugache/internal/platform"
	"ugache/internal/rng"
	"ugache/internal/solver"
	"ugache/internal/workload"
)

func testPlacement(t *testing.T, p *platform.Platform, n int, ratio float64) (*solver.Placement, *solver.Input) {
	t.Helper()
	r := rng.New(9)
	perm := r.Perm(n)
	h := make(workload.Hotness, n)
	for rank := 0; rank < n; rank++ {
		h[perm[rank]] = math.Pow(float64(rank+1), -1.1)
	}
	caps := make([]int64, p.N)
	for g := range caps {
		caps[g] = int64(float64(n) * ratio)
	}
	in := &solver.Input{P: p, Hotness: h, EntryBytes: 64, Capacity: caps}
	pl, err := (solver.UGache{}).Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	return pl, in
}

func TestFillAndLocate(t *testing.T) {
	p := platform.ServerC()
	pl, in := testPlacement(t, p, 4000, 0.1)
	sys, err := Fill(p, pl, FillOptions{CapacityEntries: in.Capacity})
	if err != nil {
		t.Fatal(err)
	}
	// Every entry of every stored block must be locatable, and locate must
	// agree with the placement.
	for e := int64(0); e < 4000; e += 7 {
		src, loc, err := locate(sys, 0, e)
		if err != nil {
			t.Fatal(err)
		}
		if src != pl.SourceOf(0, e) {
			t.Fatalf("Locate source %d, placement %d", src, pl.SourceOf(0, e))
		}
		if src != p.Host() && loc.GPU != int32(src) {
			t.Fatalf("location GPU %d, source %d", loc.GPU, src)
		}
	}
	if _, _, err := locate(sys, 99, 0); err == nil {
		t.Fatal("bad gpu accepted")
	}
	if _, _, err := locate(sys, 0, -1); err == nil {
		t.Fatal("bad key accepted")
	}
}

// locate is the gather's locate step (§3.2) against the published snapshot:
// GPU dst's source for key and, for a GPU source, its hash-table location.
func locate(sys *System, dst int, key int64) (platform.SourceID, hashtable.Location, error) {
	return sys.Snapshot().locate(sys.P, dst, key)
}

// arenaUsed is the arena's allocated byte count.
func arenaUsed(a *memsim.Arena) int64 { return a.Capacity - a.Free() }

func TestFunctionalGatherMatchesTable(t *testing.T) {
	p := platform.ServerA()
	pl, in := testPlacement(t, p, 2000, 0.15)
	table, err := emb.NewMaterialized("t", 2000, 16, emb.Float32, 5)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := Fill(p, pl, FillOptions{CapacityEntries: in.Capacity, Source: table})
	if err != nil {
		t.Fatal(err)
	}
	z, _ := workload.NewZipf(2000, 1.1)
	r := rng.New(3)
	keys := make([]int64, 500)
	for i := range keys {
		keys[i] = z.Sample(r)
	}
	out := make([]byte, len(keys)*table.EntryBytes())
	for dst := 0; dst < p.N; dst++ {
		if err := sys.Gather(dst, keys, out, nil); err != nil {
			t.Fatal(err)
		}
		want := make([]byte, table.EntryBytes())
		for i, k := range keys {
			table.ReadRow(k, want)
			got := out[i*table.EntryBytes() : (i+1)*table.EntryBytes()]
			if !bytes.Equal(got, want) {
				t.Fatalf("dst %d key %d: gathered row differs", dst, k)
			}
		}
	}
}

func TestGatherRequiresFunctionalMode(t *testing.T) {
	p := platform.ServerA()
	pl, in := testPlacement(t, p, 1000, 0.1)
	sys, err := Fill(p, pl, FillOptions{CapacityEntries: in.Capacity})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Gather(0, []int64{1}, make([]byte, 64), nil); err == nil {
		t.Fatal("size-only gather accepted")
	}
}

// hitCounts classifies a batch of keys for one GPU (local, remote, host) by
// where locate finds each — the measured counterpart of
// solver.Placement.Stats.
func hitCounts(sys *System, dst int, keys []int64) (local, remote, host int, err error) {
	for _, key := range keys {
		src, _, err := locate(sys, dst, key)
		switch {
		case err != nil:
			return 0, 0, 0, err
		case src == sys.P.Host():
			host++
		case int(src) == dst:
			local++
		default:
			remote++
		}
	}
	return local, remote, host, nil
}

func TestHitCountsMatchPlacementStats(t *testing.T) {
	p := platform.ServerC()
	pl, in := testPlacement(t, p, 4000, 0.08)
	sys, err := Fill(p, pl, FillOptions{CapacityEntries: in.Capacity})
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]int64, 0, 4000)
	for e := int64(0); e < 4000; e++ {
		keys = append(keys, e)
	}
	local, remote, host, err := hitCounts(sys, 2, keys)
	if err != nil {
		t.Fatal(err)
	}
	if local+remote+host != 4000 {
		t.Fatal("counts do not sum")
	}
	if local == 0 || host == 0 {
		t.Fatalf("degenerate split %d/%d/%d", local, remote, host)
	}
}

func TestFillValidation(t *testing.T) {
	p := platform.ServerC()
	pl, in := testPlacement(t, p, 1000, 0.1)
	if _, err := Fill(nil, pl, FillOptions{CapacityEntries: in.Capacity}); err == nil {
		t.Fatal("nil platform accepted")
	}
	if _, err := Fill(p, pl, FillOptions{CapacityEntries: in.Capacity[:3]}); err == nil {
		t.Fatal("wrong capacity arity accepted")
	}
	small := make([]int64, p.N)
	if _, err := Fill(p, pl, FillOptions{CapacityEntries: small}); err == nil {
		t.Fatal("undersized capacity accepted")
	}
}

// TestFillChecksHandedArenas: arenas handed to the Filler in the wrong
// number, of the wrong size, unbacked, already in use or missing fail the
// fill with an error instead of a panic; the right ones fill, and a
// timing-only fill ignores them.
func TestFillChecksHandedArenas(t *testing.T) {
	p := platform.ServerC()
	pl, in := testPlacement(t, p, 1000, 0.1)
	table, err := emb.NewMaterialized("t", 1000, 16, emb.Float32, 3)
	if err != nil {
		t.Fatal(err)
	}
	size := slices.Max(in.Capacity) * int64(pl.EntryBytes)
	arenas := func(n int, bytes int64) []*memsim.Arena {
		a, err := NewArenas(n, bytes)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	used := arenas(p.N, size)
	if _, err := used[3].Alloc(64); err != nil {
		t.Fatal(err)
	}
	unbacked := arenas(p.N, size)
	unbacked[5] = memsim.NewArena("gpu5", size)
	missing := arenas(p.N, size)
	missing[0] = nil
	for name, a := range map[string][]*memsim.Arena{
		"too few":   arenas(p.N-1, size),
		"too many":  arenas(p.N+1, size),
		"too small": arenas(p.N, size-1),
		"too large": arenas(p.N, size+int64(pl.EntryBytes)),
		"in use":    used,
		"unbacked":  unbacked,
		"missing":   missing,
		"none":      {},
	} {
		if sys, err := Fill(p, pl, FillOptions{CapacityEntries: in.Capacity, Source: table, Arenas: a}); err == nil || sys != nil {
			t.Fatalf("%s: Fill = %v, %v; want an error", name, sys, err)
		}
	}
	if _, err := Fill(p, pl, FillOptions{CapacityEntries: in.Capacity, Source: table, Arenas: arenas(p.N, size)}); err != nil {
		t.Fatal(err)
	}
	if _, err := Fill(p, pl, FillOptions{CapacityEntries: in.Capacity, Arenas: arenas(p.N-1, size)}); err != nil {
		t.Fatalf("timing-only fill with arenas handed: %v", err)
	}
}

func TestHotnessSampler(t *testing.T) {
	s := NewHotnessSampler(10, 2)
	s.Observe([]int64{1, 1, 2}) // recorded
	s.Observe([]int64{3})       // skipped
	s.Observe([]int64{1})       // recorded
	if s.Batches() != 2 {
		t.Fatalf("sampled %d", s.Batches())
	}
	h, err := s.Hotness()
	if err != nil {
		t.Fatal(err)
	}
	// Presence counting: the duplicate 1 in the first batch counts once. Key
	// 3's batch was skipped, so it reads like key 0, which no batch held: the
	// never-seen estimate (this compared against 0 while the sampler did no
	// smoothing; a recorded 3 would read 0.5).
	if h[1] != 1 || h[2] != 0.5 || h[3] != h[0] || h[3] >= h[2] {
		t.Fatalf("hotness %v", h[:4])
	}
	empty := NewHotnessSampler(10, 1)
	if _, err := empty.Hotness(); err == nil {
		t.Fatal("empty sampler accepted")
	}
}

func TestRefresh(t *testing.T) {
	p := platform.ServerC()
	pl, in := testPlacement(t, p, 4000, 0.1)
	table, err := emb.NewMaterialized("t", 4000, 16, emb.Float32, 5)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := Fill(p, pl, FillOptions{CapacityEntries: in.Capacity, Source: table})
	if err != nil {
		t.Fatal(err)
	}

	// New hotness: reverse the popularity so the diff is large.
	h2 := make(workload.Hotness, 4000)
	for i := range h2 {
		h2[i] = in.Hotness[4000-1-i]
	}
	in2 := *in
	in2.Hotness = h2
	pl2, err := (solver.UGache{}).Solve(&in2)
	if err != nil {
		t.Fatal(err)
	}

	cfg := DefaultRefreshConfig()
	cfg.BatchEntries = 200
	cfg.UpdateBandwidth = 16 * 200 / 0.050 // 50 ms per update batch
	base := 0.002
	rep, err := sys.Refresh(pl2, nil, base, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.EvictedEntries == 0 || rep.InsertedEntries == 0 {
		t.Fatalf("no diff: %+v", rep)
	}
	if rep.Duration <= cfg.SolveSeconds {
		t.Fatalf("duration %g too small", rep.Duration)
	}
	// Impact bounded: never above updateImpact, mean below ~12%.
	for _, st := range rep.Timeline {
		if st.IterTime > base*updateImpact+1e-12 {
			t.Fatalf("impact exceeded: %g", st.IterTime)
		}
		if st.IterTime < base-1e-12 {
			t.Fatalf("iteration faster than base: %g", st.IterTime)
		}
	}
	if rep.MeanImpact <= 0 || rep.MeanImpact > 0.15 {
		t.Fatalf("mean impact %g", rep.MeanImpact)
	}
	// Steady state outside the refresh window.
	if rep.Timeline[0].IterTime != base {
		t.Fatal("pre-refresh sample not at base")
	}

	// The system now serves the new placement, and gathers still match.
	if cur := sys.Snapshot().Extractor.Pl; cur != pl2 && cur.Policy == "" {
		t.Fatal("placement not switched")
	}
	keys := []int64{0, 1, 2, 3999}
	out := make([]byte, len(keys)*table.EntryBytes())
	if err := sys.Gather(0, keys, out, nil); err != nil {
		t.Fatal(err)
	}
	want := make([]byte, table.EntryBytes())
	for i, k := range keys {
		table.ReadRow(k, want)
		if !bytes.Equal(out[i*table.EntryBytes():(i+1)*table.EntryBytes()], want) {
			t.Fatalf("post-refresh gather wrong for key %d", k)
		}
	}
}

func TestRefreshValidation(t *testing.T) {
	p := platform.ServerC()
	pl, in := testPlacement(t, p, 1000, 0.1)
	sys, err := Fill(p, pl, FillOptions{CapacityEntries: in.Capacity})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Refresh(nil, nil, 1, DefaultRefreshConfig()); err == nil {
		t.Fatal("nil placement accepted")
	}
	if _, err := sys.Refresh(pl, nil, 0, DefaultRefreshConfig()); err == nil {
		t.Fatal("zero base time accepted")
	}
	bad := DefaultRefreshConfig()
	bad.BatchEntries = 0
	if _, err := sys.Refresh(pl, nil, 1, bad); err == nil {
		t.Fatal("bad config accepted")
	}
}

func TestRepeatedRefreshReusesSlots(t *testing.T) {
	// Flipping between two placements many times must not grow arena usage:
	// evicted slots are recycled by the free list.
	p := platform.ServerC()
	pl, in := testPlacement(t, p, 3000, 0.1)
	table, err := emb.NewMaterialized("t", 3000, 16, emb.Float32, 5) // 64 B rows, matching the placement

	if err != nil {
		t.Fatal(err)
	}
	sys, err := Fill(p, pl, FillOptions{CapacityEntries: in.Capacity, Source: table})
	if err != nil {
		t.Fatal(err)
	}
	h2 := make(workload.Hotness, 3000)
	for i := range h2 {
		h2[i] = in.Hotness[3000-1-i]
	}
	in2 := *in
	in2.Hotness = h2
	pl2, err := (solver.UGache{}).Solve(&in2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultRefreshConfig()
	cfg.BatchEntries = 500
	usedAfterFirst := int64(-1)
	for round := 0; round < 6; round++ {
		target := pl2
		if round%2 == 1 {
			// Re-solve the original (the Placement object was consumed).
			target, err = (solver.UGache{}).Solve(in)
			if err != nil {
				t.Fatal(err)
			}
		}
		if _, err := sys.Refresh(target, nil, 0.001, cfg); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		used := arenaUsed(sys.Caches()[0].Arena)
		if usedAfterFirst < 0 {
			usedAfterFirst = used
		} else if used > usedAfterFirst {
			t.Fatalf("round %d: arena grew from %d to %d (slots not recycled)",
				round, usedAfterFirst, used)
		}
		// Content still correct.
		out := make([]byte, 4*table.EntryBytes())
		if err := sys.Gather(1, []int64{0, 1, 2998, 2999}, out, nil); err != nil {
			t.Fatalf("round %d gather: %v", round, err)
		}
	}
}

// sequentialFill is the Filler as it ran before GPUs were filled side by
// side: one goroutine, blocks outermost, every row read once per holder.
func sequentialFill(t *testing.T, p *platform.Platform, pl *solver.Placement, capacity []int64, src RowSource) []*GPUCache {
	t.Helper()
	caches := make([]*GPUCache, p.N)
	for g, used := range pl.CapacityUsed() {
		a, err := memsim.NewBackedArena("seq", slices.Max(capacity)*int64(pl.EntryBytes))
		if err != nil {
			t.Fatal(err)
		}
		caches[g] = &GPUCache{GPU: g, Table: hashtable.New(int(used) + 16), Arena: a, EntryBytes: pl.EntryBytes}
	}
	buf := make([]byte, pl.EntryBytes)
	for bi := range pl.Blocks {
		b := &pl.Blocks[bi]
		for g, stored := range b.Store {
			for r := b.Start; stored && r < b.End; r++ {
				if err := caches[g].insert(int64(pl.ByRank[r]), src, buf); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return caches
}

// failingSource is a RowSource that refuses one key.
type failingSource struct {
	RowSource
	bad int64
}

var errBadRow = errors.New("bad row")

func (f failingSource) ReadRow(key int64, dst []byte) error {
	if key == f.bad {
		return errBadRow
	}
	return f.RowSource.ReadRow(key, dst)
}

// TestFillMatchesSequentialFill: taking each GPU's used range at once,
// laying out the tables side by side and reading each distinct row once, into
// its first holder's slot, then copying it to the other holders, from many
// workers at the same time must leave every GPU's table and arena exactly as
// the slot-by-slot sequential Filler did — same keys at the same offsets
// holding the same bytes — at any parallelism, into arenas Fill makes
// and into arenas handed to it: for a materialized and a
// procedural multi-table source (what train-extract fills from), and for
// placements that mix replicas and partitions, replicate every row on every
// GPU, and store every row once. A row the source refuses fails the fill
// with the source's error and returns no system.
func TestFillMatchesSequentialFill(t *testing.T) {
	const n = 6000
	p := platform.ServerC()
	mixed, in := testPlacement(t, p, n, 0.1)
	solve := func(pol solver.Policy, perGPU int64) (*solver.Placement, []int64) {
		cp := *in
		cp.Capacity = make([]int64, p.N)
		for g := range cp.Capacity {
			cp.Capacity[g] = perGPU
		}
		pl, err := pol.Solve(&cp)
		if err != nil {
			t.Fatal(err)
		}
		return pl, cp.Capacity
	}
	replicated, repCaps := solve(solver.Replication{}, n)
	partitioned, partCaps := solve(solver.Partition{}, n/int64(p.N)+100)
	var repUsed, partUsed int64
	for g := range p.N {
		repUsed += replicated.CapacityUsed()[g]
		partUsed += partitioned.CapacityUsed()[g]
	}
	if repUsed != n*int64(p.N) || partUsed != n {
		t.Fatalf("replication stores %d entries, partition %d; want every row on every GPU (%d) and every row once (%d)",
			repUsed, partUsed, n*int64(p.N), n)
	}
	materialized, err := emb.NewMaterialized("t", n, 16, emb.Float32, 5)
	if err != nil {
		t.Fatal(err)
	}
	var parts []*emb.Table
	for i, size := range []int64{3500, 1500, 700, 300} {
		tab, err := emb.New(fmt.Sprintf("t%d", i), size, 16, emb.Float32, uint64(11+i))
		if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, tab)
	}
	procedural, err := emb.NewMultiTable(parts)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		pl   *solver.Placement
		caps []int64
		src  RowSource
	}{
		{"ugache/materialized", mixed, in.Capacity, materialized},
		{"ugache/procedural", mixed, in.Capacity, procedural},
		{"replication", replicated, repCaps, procedural},
		{"partition", partitioned, partCaps, materialized},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, c := range cases {
		want := sequentialFill(t, p, c.pl, c.caps, c.src)
		// A key halfway through the hottest block, which every case stores.
		bad := failingSource{RowSource: c.src, bad: int64(c.pl.ByRank[c.pl.Blocks[0].End/2])}
		for _, procs := range []int{1, 3, 4, 8} {
			runtime.GOMAXPROCS(procs)
			arenas, err := NewArenas(p.N, slices.Max(c.caps)*int64(c.pl.EntryBytes))
			if err != nil {
				t.Fatal(err)
			}
			for _, opt := range []FillOptions{
				{CapacityEntries: c.caps, Source: c.src},
				{CapacityEntries: c.caps, Source: c.src, Arenas: arenas},
			} {
				sys, err := Fill(p, c.pl, opt)
				if err != nil {
					t.Fatal(err)
				}
				handed := opt.Arenas != nil
				got, ref := make([]byte, c.pl.EntryBytes), make([]byte, c.pl.EntryBytes)
				for g, gc := range sys.Caches() {
					if gc.Table.Len() != want[g].Table.Len() || arenaUsed(gc.Arena) != arenaUsed(want[g].Arena) {
						t.Fatalf("%s procs %d arenas handed %v gpu %d: %d keys in %d bytes, sequential fill has %d in %d", c.name, procs, handed, g,
							gc.Table.Len(), arenaUsed(gc.Arena), want[g].Table.Len(), arenaUsed(want[g].Arena))
					}
					want[g].Table.Range(func(key int64, loc hashtable.Location) bool {
						if l, ok := gc.Table.Lookup(key); !ok || l != loc {
							t.Fatalf("%s procs %d arenas handed %v gpu %d key %d: at %+v (found %v), sequential fill put it at %+v", c.name, procs, handed, g, key, l, ok, loc)
						}
						if err := gc.Arena.Read(loc.Offset, got); err != nil {
							t.Fatal(err)
						}
						if err := want[g].Arena.Read(loc.Offset, ref); err != nil {
							t.Fatal(err)
						}
						if !bytes.Equal(got, ref) {
							t.Fatalf("%s procs %d arenas handed %v gpu %d key %d: row bytes differ from the sequential fill", c.name, procs, handed, g, key)
						}
						return true
					})
				}
			}
			if sys, err := Fill(p, c.pl, FillOptions{CapacityEntries: c.caps, Source: bad}); !errors.Is(err, errBadRow) || sys != nil {
				t.Fatalf("%s procs %d: Fill over a source refusing key %d = %v, %v; want no system and %v",
					c.name, procs, bad.bad, sys, err, errBadRow)
			}
		}
	}
}

// BenchmarkFill fills the benchmark's train-extract caches: ServerC, CR at
// scale 0.05 as procedural tables, a 10 % cache ratio per GPU and the UGache
// placement of 96 warm batches' presampled hotness. Fill makes its own
// arenas here; core.Build makes them beside the solve.
func BenchmarkFill(b *testing.B) {
	p := platform.ServerC()
	ds, err := workload.CR.Build(0.05, 42)
	if err != nil {
		b.Fatal(err)
	}
	r := rng.New(42).Split("train-warm")
	warm := make([][]int64, 96)
	for i := range warm {
		warm[i] = ds.GenBatch(r, 2048)
	}
	hot, err := workload.ProfileBatches(ds.NumEntries(), warm)
	if err != nil {
		b.Fatal(err)
	}
	caps := make([]int64, p.N)
	for g := range caps {
		caps[g] = int64(math.Ceil(0.10 * float64(len(hot))))
	}
	pl, err := (solver.UGache{}).Solve(&solver.Input{P: p, Hotness: hot, EntryBytes: ds.MT.MaxEntryBytes(), Capacity: caps})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Fill(p, pl, FillOptions{CapacityEntries: caps, Source: ds.MT}); err != nil {
			b.Fatal(err)
		}
	}
}
