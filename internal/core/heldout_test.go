package core

import (
	"testing"

	"ugache/internal/extract"
	"ugache/internal/platform"
	"ugache/internal/rng"
	"ugache/internal/solver"
	"ugache/internal/workload"
)

// TestHeldOutHotnessIsHonest holds the model to the clock it predicts on
// count-derived hotness: the benchmark's train-extract at its short size (CR
// at scale 0.005 on ServerC, 96 profiled batches of 256 samples, a tenth of
// the entries cached per GPU), then 32 iterations of eight fresh batches each
// from another stream. The mean simulated extraction time must stay within
// 5.4% of the solver's own estimate for the placement. With raw presence
// counts and one global unseen tail the ratio here was 1.0925 (1.118 at the
// benchmark's full size); with workload.EstimatePresence it is 1.0158
// (1.007) — the threshold sits midway, so planning on in-sample hotness
// again fails this test. What is left above 1 is not the estimate: the
// model prices expected volumes and the clock takes the slowest of eight
// GPUs' realised ones.
func TestHeldOutHotnessIsHonest(t *testing.T) {
	const (
		seed      = 42
		samples   = 256
		threshold = 1.054
	)
	p := platform.ServerC()
	ds, err := workload.CR.Build(0.005, seed)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(seed).Split("train-warm")
	warm := make([][]int64, 96)
	for i := range warm {
		warm[i] = ds.GenBatch(r, samples)
	}
	hot, err := workload.ProfileBatches(ds.NumEntries(), warm)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := Build(Config{
		Platform: p, Hotness: hot, EntryBytes: ds.MT.MaxEntryBytes(), CacheRatio: 0.10,
		Policy: solver.UGache{}, Mechanism: extract.Factored,
	})
	if err != nil {
		t.Fatal(err)
	}
	fresh := rng.New(seed).Split("train-iterations")
	seen := make(map[int64]struct{})
	const iterations = 32
	total := 0.0
	for i := 0; i < iterations; i++ {
		b := extract.Batch{Keys: make([][]int64, p.N)}
		for g := range b.Keys {
			b.Keys[g] = workload.Unique(ds.GenBatch(fresh, samples), seen)
		}
		res, err := sys.ExtractBatch(&b, nil)
		if err != nil {
			t.Fatal(err)
		}
		total += res.Time
	}
	sim, est := total/iterations, maxOf(sys.EstimatedTimes())
	t.Logf("simulated %.4g us per iteration, estimated %.4g us: ratio %.4f", sim*1e6, est*1e6, sim/est)
	if sim > threshold*est {
		t.Fatalf("held-out extraction takes %.4g us, %.4f of the %.4g us the placement was solved for (at most %.3f)",
			sim*1e6, sim/est, est*1e6, threshold)
	}
}
