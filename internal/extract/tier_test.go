package extract

import (
	"fmt"
	"testing"

	"ugache/internal/platform"
	"ugache/internal/rng"
	"ugache/internal/solver"
	"ugache/internal/workload"
)

// TestTierSplitMatchesPerKeyOracle holds Run's tier split to a per-key
// oracle on Servers A, B and C and on a two-machine cluster twin of Server A
// with an Owned predicate, for every mechanism, over random batches with
// staged keys, on one reused scratch. Each key's tier is its placement
// source (SourceOf), an owned network-class key regrouped onto the host,
// and a staged key local. Then each TierBytes row sums to its SrcBytes row,
// and TierSeconds is the sum of bytes x time-per-byte over the tier's
// sources, bit for bit.
func TestTierSplitMatchesPerKeyOracle(t *testing.T) {
	twin, err := platform.ClusterOf(platform.ServerAConfig(), platform.DefaultNetwork(2))
	if err != nil {
		t.Fatal(err)
	}
	owned := func(k int64) bool { return k%3 == 0 }
	const n = 6000
	for _, tc := range []struct {
		p     *platform.Platform
		owned func(int64) bool
	}{{platform.ServerA(), nil}, {platform.ServerB(), nil}, {platform.ServerC(), nil}, {twin, owned}} {
		p := tc.p
		pl, _ := buildPlacement(t, p, n, 0.05, solver.UGache{})
		ex, err := New(p, pl)
		if err != nil {
			t.Fatal(err)
		}
		ex.Owned = tc.owned
		tpb := p.TimePerByteTable()
		z, err := workload.NewZipf(n, 1.1)
		if err != nil {
			t.Fatal(err)
		}
		r := rng.New(11)
		sc := NewScratch()
		for trial := 0; trial < 6; trial++ {
			b := randomStagedBatch(r, z, p.N, n)
			for _, m := range []Mechanism{Factored, PeerRandom, MessageBased, FactoredStatic} {
				name := fmt.Sprintf("%s/trial %d/%s", p.Name, trial, m)
				res, err := ex.Run(m, b, sc)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				checkTierSplit(t, name, p, pl, tc.owned, tpb, b, res)
			}
		}
	}
}

// randomStagedBatch draws a batch of unique Zipf keys for every GPU — some
// GPUs empty, some past the parallel-grouping threshold together — and
// stages a few keys per GPU that its demand keys do not hold.
func randomStagedBatch(r *rng.Rand, z *workload.Zipf, gpus int, n int64) *Batch {
	b := &Batch{Keys: make([][]int64, gpus), Staged: make([][]int64, gpus)}
	seen := map[int64]struct{}{}
	for g := 0; g < gpus; g++ {
		keys := make([]int64, r.Intn(1500))
		for i := range keys {
			keys[i] = z.Sample(r)
		}
		b.Keys[g] = workload.Unique(keys, seen)
		demand := map[int64]bool{}
		for _, k := range b.Keys[g] {
			demand[k] = true
		}
		for i := r.Intn(40); i > 0; i-- {
			if k := int64(r.Uint64n(uint64(n))); !demand[k] {
				demand[k] = true
				b.Staged[g] = append(b.Staged[g], k)
			}
		}
	}
	return b
}

func checkTierSplit(t *testing.T, name string, p *platform.Platform, pl *solver.Placement, owned func(int64) bool,
	tpb [][]float64, b *Batch, res *Result) {
	t.Helper()
	eb := float64(pl.EntryBytes)
	for g := range b.Keys {
		var want [platform.NumTiers]float64
		for _, k := range b.Keys[g] {
			src := pl.SourceOf(g, k)
			if owned != nil && src == p.Network() && owned(k) {
				src = p.Host()
			}
			want[p.Tier(g, src)] += eb
		}
		want[platform.TierLocal] += eb * float64(len(b.Staged[g]))

		var seconds [platform.NumTiers]float64
		var srcSum, tierSum float64
		for j, bytes := range res.SrcBytes[g] {
			srcSum += bytes
			if bytes != 0 {
				seconds[p.Tier(g, platform.SourceID(j))] += bytes * tpb[g][j]
			}
		}
		for tier := range want {
			tierSum += res.TierBytes[g][tier]
			if got := res.TierBytes[g][tier]; got != want[tier] {
				t.Fatalf("%s: gpu %d %s bytes %g, per-key oracle %g", name, g, platform.Tier(tier), got, want[tier])
			}
			if got := res.TierSeconds[g][tier]; got != seconds[tier] {
				t.Fatalf("%s: gpu %d %s seconds %g, want %g", name, g, platform.Tier(tier), got, seconds[tier])
			}
		}
		if tierSum != srcSum {
			t.Fatalf("%s: gpu %d tier bytes sum to %g, source bytes to %g", name, g, tierSum, srcSum)
		}
	}
}
