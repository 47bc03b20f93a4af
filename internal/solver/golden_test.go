package solver

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"sync"
	"testing"

	"ugache/internal/platform"
	"ugache/internal/rng"
	"ugache/internal/workload"
)

// presenceHotness is the benchmark harness's hotness (benchmark/inputs.go):
// Zipf ranks scattered over the key space by a seeded permutation, each key
// carrying its expected per-batch presence 1-(1-p)^8192.
func presenceHotness(tb testing.TB, n int64, alpha float64, seed uint64) workload.Hotness {
	tb.Helper()
	z, err := workload.NewZipf(n, alpha)
	if err != nil {
		tb.Fatal(err)
	}
	perm := rng.New(seed).Split("key-permutation").Perm(int(n))
	h := make(workload.Hotness, n)
	for r := int64(0); r < n; r++ {
		p := z.CDF(r+1) - z.CDF(r)
		h[perm[r]] = -math.Expm1(8192 * math.Log1p(-p))
	}
	return h
}

func uniformCapacity(p *platform.Platform, n int, ratio float64) []int64 {
	caps := make([]int64, p.N)
	for g := range caps {
		caps[g] = int64(math.Ceil(ratio * float64(n)))
	}
	return caps
}

// The pinned solve inputs: the three problems the benchmark's set-up solves
// (benchmark/system.go) and one asymmetric platform, where UGache is the scan
// and OptimalLP refuses.
var pinnedInputs = []struct {
	name  string
	short bool // part of the -short subset
	build func(tb testing.TB) *Input
}{
	{"serverA-400k", true, func(tb testing.TB) *Input {
		p := platform.ServerA()
		return &Input{P: p, Hotness: presenceHotness(tb, 400_000, 1.2, 42), EntryBytes: 128,
			Capacity: uniformCapacity(p, 400_000, 0.10)}
	}},
	{"cluster2-400k", false, func(tb testing.TB) *Input {
		p, err := platform.ClusterOf(platform.ServerAConfig(), platform.DefaultNetwork(2))
		if err != nil {
			tb.Fatal(err)
		}
		return &Input{P: p, Hotness: presenceHotness(tb, 400_000, 0.9, 42), EntryBytes: 128,
			Capacity: uniformCapacity(p, 400_000, 0.02)}
	}},
	{"serverC-cr", false, func(tb testing.TB) *Input {
		p := platform.ServerC()
		ds, err := workload.CR.Build(0.05, 42)
		if err != nil {
			tb.Fatal(err)
		}
		r := rng.New(42).Split("train-warm")
		warm := make([][]int64, 96)
		for i := range warm {
			warm[i] = ds.GenBatch(r, 2048)
		}
		hot, err := workload.ProfileBatches(ds.NumEntries(), warm)
		if err != nil {
			tb.Fatal(err)
		}
		return &Input{P: p, Hotness: hot, EntryBytes: ds.MT.MaxEntryBytes(),
			Capacity: uniformCapacity(p, len(hot), 0.10)}
	}},
	{"serverB-60k", true, func(tb testing.TB) *Input {
		p := platform.ServerB()
		return &Input{P: p, Hotness: zipfHotness(60_000, 1.1, 200_000, 42), EntryBytes: 512,
			Capacity: uniformCapacity(p, 60_000, 0.08)}
	}},
}

var goldenPolicies = []struct {
	name string
	pol  Policy
}{
	{"ugache", UGache{}},
	{"rep-part-17", RepPart{}},
	{"rep-part-33", RepPart{Candidates: 33}},
	{"optimal-lp", OptimalLP{}},
	{"replication", Replication{}},
	{"partition", Partition{}},
	{"clique-partition", CliquePartition{}},
}

// goldenShort forces the -short subset (set in race builds, see race_test.go).
var goldenShort bool

// goldenProcs are the GOMAXPROCS settings every golden solve runs at: every
// step inline, the benchmark box's two processors, uneven shares, and more
// workers than the pinned inputs have minimum-sized ranges for. A solve's
// bytes may not depend on them.
var goldenProcs = []int{1, 2, 3, 8}

type goldenSolve struct {
	saveSHA string // SHA-256 of encodePlacement's bytes
	estBits uint64 // math.Float64bits(max(EstTimes))
}

// TestGoldenPlacements pins every policy's output on the pinned inputs, at
// every goldenProcs setting, to the bytes recorded before the single-pass
// solve rewrite: the same encodePlacement stream and the same modelled
// makespan to the last bit. To re-record after an intended placement change,
// empty goldenSolves, run the test and paste the lines it prints (once per
// setting; they must agree).
func TestGoldenPlacements(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	short := testing.Short() || goldenShort
	for _, pi := range pinnedInputs {
		if short && !pi.short {
			continue
		}
		in := pi.build(t)
		for _, procs := range goldenProcs {
			runtime.GOMAXPROCS(procs)
			for _, gp := range goldenPolicies {
				key := pi.name + "/" + gp.name
				if gp.name == "optimal-lp" && (short || asymmetry(in) != nil) {
					continue // the reference LP is most of the full run's time, and it refuses Server B
				}
				if got := goldenOf(t, gp.pol, in); got != goldenSolves[key] {
					t.Errorf("golden mismatch at GOMAXPROCS %d:\n\t%q: {%q, %#x},", procs, key, got.saveSHA, got.estBits)
				}
			}
		}
	}
}

// goldenOf solves in with pol and returns the placement's golden record.
func goldenOf(tb testing.TB, pol Policy, in *Input) goldenSolve {
	tb.Helper()
	pl, err := pol.Solve(in)
	if err != nil {
		tb.Fatalf("%s: %v", pol.Name(), err)
	}
	sum := sha256.Sum256(encodePlacement(pl))
	return goldenSolve{hex.EncodeToString(sum[:]), math.Float64bits(maxF(pl.EstTimes))}
}

// encodePlacement is the byte stream the golden hashes cover, every field
// little-endian: a magic ("UGAC" "PL01"), the policy name behind its length,
// the GPU count, row size, entry count and block count, ByRank as int32s,
// then per block its [Start, End), HotPerEntry, one byte per GPU for Store and
// one int32 per GPU for Access. It is the stream the goldens were recorded
// over, so a placement that encodes the same is the same placement.
func encodePlacement(pl *Placement) []byte {
	le := binary.LittleEndian
	out := le.AppendUint64(nil, 0x55474143_504c3031)
	out = le.AppendUint64(out, uint64(len(pl.Policy)))
	out = append(out, pl.Policy...)
	for _, v := range []int{pl.NumGPUs, pl.EntryBytes, int(pl.NumEntries()), len(pl.Blocks)} {
		out = le.AppendUint64(out, uint64(v))
	}
	for _, e := range pl.ByRank {
		out = le.AppendUint32(out, uint32(e))
	}
	for _, b := range pl.Blocks {
		out = le.AppendUint64(out, uint64(b.Start))
		out = le.AppendUint64(out, uint64(b.End))
		out = le.AppendUint64(out, math.Float64bits(b.HotPerEntry))
		for g := 0; g < pl.NumGPUs; g++ {
			stored := byte(0)
			if b.Store[g] {
				stored = 1
			}
			out = append(out, stored)
		}
		for g := 0; g < pl.NumGPUs; g++ {
			out = le.AppendUint32(out, uint32(int32(b.Access[g])))
		}
	}
	return out
}

// TestConcurrentSolvesShareInput solves one shared Input from four goroutines
// at once, as the two nodes of a cluster and a refresh do, each solve itself
// parallel: every placement must be the golden one.
func TestConcurrentSolvesShareInput(t *testing.T) {
	in := pinnedInputs[0].build(t)
	want := goldenSolves[pinnedInputs[0].name+"/ugache"]
	got := make([]goldenSolve, 4)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = goldenOf(t, UGache{}, in)
		}()
	}
	wg.Wait()
	for i, g := range got {
		if g != want {
			t.Errorf("solve %d of 4: %+v, golden %+v", i, g, want)
		}
	}
}

// The eight serverC-cr entries were re-recorded when ProfileBatches, which
// builds that input's hotness, took workload.EstimatePresence in place of raw
// presence counts: the solver is untouched, its input moved (modelled
// makespan 10.07 us -> 8.70 us). The other three inputs compute their hotness
// analytically and kept their bytes through that change. The ugache and
// optimal-lp entries of the three symmetric inputs were re-recorded when
// realizeSymmetric took to striping what the LP priced (modelled makespan
// 1.529 -> 1.497 us on serverA-400k, 27.39 -> 26.77 us on cluster2-400k,
// 8.704 -> 8.682 us on serverC-cr, where the LP placement now beats the scan).
var goldenSolves = map[string]goldenSolve{
	"serverA-400k/ugache":            {"a3d37fd59afde97db33ca37c78ff69cb2d8c772b0395cfcc13a198ad10dbbfae", 0x3eb91eb8147dd500},
	"serverA-400k/rep-part-17":       {"11a9f1d83d5b6910417a276587a68ca7e136eb93de9f2d0d3c6b610a2f31cce8", 0x3eba57619a866d86},
	"serverA-400k/rep-part-33":       {"5f71f21d3c542d52c3072935b5dedb09553d2c8c2f693a3e5f98a811db2ee900", 0x3eb9a79fb37f1972},
	"serverA-400k/optimal-lp":        {"dfcb999f7ece4e13f910d2f311e9db9c82911b2556836cf0537c30eac25fd019", 0x3eb91eb8147dd500},
	"serverA-400k/replication":       {"eac691575fe52c640e7f973a87414a1a198509ced0fe7ea82c6c2dcc0148b35a", 0x3ed18f79955e9257},
	"serverA-400k/partition":         {"d97daa1b3c62bf1a82208930a76f28270d5449c1b0302259e662df3f1481e0d2", 0x3ebcaeb8733ce80a},
	"serverA-400k/clique-partition":  {"afabd61c4b0dfee51b293ef444dddd749e9de9e98d0975889c382f550e328e10", 0x3ebcaeb8733ce80a},
	"cluster2-400k/ugache":           {"40e4e9939918467d718d154b03a99ada10f0ab35127a018a5795bd5aff48ffff", 0x3efc12ed1b6b8f02},
	"cluster2-400k/rep-part-17":      {"12ba876e0d7e4ccc71699f9fff92b0e6c788bfa33fe288dcc1405b46abc49c0f", 0x3efd11e96a885a64},
	"cluster2-400k/rep-part-33":      {"12ba876e0d7e4ccc71699f9fff92b0e6c788bfa33fe288dcc1405b46abc49c0f", 0x3efd11e96a885a64},
	"cluster2-400k/optimal-lp":       {"40cd6156543c6e5c1f893809a4bdc6991ede247fba1b87ec5d5ae2d752794f27", 0x3efc12ed1b6b8f02},
	"cluster2-400k/replication":      {"196187db6a97e14d1c98b86a1fc4aa64707787a56f7ae3970a31a3478a432b79", 0x3f0439c72f9e59be},
	"cluster2-400k/partition":        {"5c6328ac2e42bedbd5c38de44630a715f593b1dfe19e0b9c21af48e5c5dbc1d6", 0x3efd38254f63bf53},
	"cluster2-400k/clique-partition": {"fe31bafc7f4d43e6e4b92bd20713dca355fac11edd59cd82f3cb5fa04d4c5d16", 0x3efd38254f63bf53},
	"serverC-cr/ugache":              {"fe016135687fa8648c6882a1e79d9c81781f2d90a1e68fa0a1a89c0980bb0d5b", 0x3ee234e222ba4549},
	"serverC-cr/rep-part-17":         {"4aa59ab778eb2127414d2d420264a2ec035b50f2f5bd6d97c1009746f38f9a8b", 0x3ee25c34879a0e20},
	"serverC-cr/rep-part-33":         {"cafea744c55fb91b824f6abbff3d584c20774306b42d637825912c8b7393ae9f", 0x3ee240e335c8c9dd},
	"serverC-cr/optimal-lp":          {"55a17ba9f483dd8c02f1cbbe7c1d6256d78b618b546219be6b3bc47eff5dc165", 0x3ee234e222ba4549},
	"serverC-cr/replication":         {"93b9d8f4289509836af2d1704082d0c11b8055e7a888f14f46ac94f69bf80db1", 0x3efc1b36c1ad0b55},
	"serverC-cr/partition":           {"3961dd26313970f8e25856fa5b7103a1436e7f8c3d3c7bee4bcbf5fae799d20c", 0x3ef3dd2745e08eaf},
	"serverC-cr/clique-partition":    {"5182161cc397095a7b1d4591977ed379eb3c209b23afa5c6279c48a138d9ef5a", 0x3ef3dd2745e08eaf},
	"serverB-60k/ugache":             {"8b94b16c94cb93b4e34279b8e5cd458f36a34c69bbcfd2f4915f615447d4037c", 0x3f40ba885587c5ca},
	"serverB-60k/rep-part-17":        {"cd69ced22064794ea0a3cdd38ec2f2ed14c62d54c4cc8a826721e586f8ce784a", 0x3f40d50dae8b57a4},
	"serverB-60k/rep-part-33":        {"fadcb582146b75e72fa956c71719e93727414a710f2414c120c61bf3e854cecb", 0x3f40ba885587c5ca},
	"serverB-60k/replication":        {"9b267a9e87bf1c1a1eb4cb8c7f85190b7487673ae2a6eb938ac75b65ea9f87b2", 0x3f526c5beecd8958},
	"serverB-60k/partition":          {"1edae804435cc87d96ed56d4d915c3a5c481d212bee1c27e264dafabd3a1b2d5", 0x3f721cf27b78171a},
	"serverB-60k/clique-partition":   {"b6738bcc5adf6f894f9712d00210a126c2b26e52ab5acb9ba9e6bf12a41e018f", 0x3f574bb9608b4928},
}

// TestBranchesSideBySideMatchInTurn solves small symmetric inputs, where the
// LP and the RepPart scan take about as long, so that the two branches'
// range-sum memos are in use at the same moment, many times at GOMAXPROCS 2:
// every placement must be the one the branches give in turn on one processor
// (and under the race detector, no memo may be shared).
func TestBranchesSideBySideMatchInTurn(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	p := platform.ServerA()
	for _, n := range []int{500, 2000, 8000} {
		in := &Input{P: p, Hotness: zipfHotness(n, 1.1, 2000, 5), EntryBytes: 128,
			Capacity: uniformCapacity(p, n, 0.1), BlockBudget: 32}
		runtime.GOMAXPROCS(1)
		want := goldenOf(t, UGache{}, in)
		runtime.GOMAXPROCS(2)
		for i := 0; i < 50; i++ {
			if got := goldenOf(t, UGache{}, in); got != want {
				t.Fatalf("n=%d, solve %d: %+v side by side, %+v in turn", n, i, got, want)
			}
		}
	}
}

var benchPlacement *Placement

// BenchmarkPolicySolve times the shipped policy's whole solve on the three
// problems the benchmark's set-up solves (BENCH_solver.json records it at
// -cpu 1 and 2, paired against the commit before the last change to move it).
func BenchmarkPolicySolve(b *testing.B) {
	for _, pi := range pinnedInputs[:3] {
		b.Run(pi.name, func(b *testing.B) {
			in := pi.build(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pl, err := (UGache{}).Solve(in)
				if err != nil {
					b.Fatal(err)
				}
				benchPlacement = pl
			}
		})
	}
}
