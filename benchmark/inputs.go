package main

import (
	"math"
	"sort"
	"time"

	"ugache/internal/extract"
	"ugache/internal/rng"
	"ugache/internal/workload"
)

// keySpace is the popularity model of the common table: Zipf ranks mapped
// to keys through a seeded permutation, so the hot rows are scattered over
// the table instead of sitting next to each other in memory.
type keySpace struct {
	n    int64
	zipf *workload.Zipf
	perm []int32 // rank -> key
}

func newKeySpace(n int64, alpha float64, seed uint64) (*keySpace, error) {
	z, err := workload.NewZipf(n, alpha)
	if err != nil {
		return nil, err
	}
	perm := make([]int32, n)
	for i, k := range rng.New(seed).Split("key-permutation").Perm(int(n)) {
		perm[i] = int32(k)
	}
	return &keySpace{n: n, zipf: z, perm: perm}, nil
}

func (ks *keySpace) sample(r *rng.Rand) int64 { return int64(ks.perm[ks.zipf.Sample(r)]) }

// hotness returns the expected per-batch presence of every key for batches
// of batchKeys independent draws: 1-(1-p)^B, the quantity a deduplicating
// extractor pays for. rotate shifts the popularity ranks before the
// permutation, which moves the whole hot head onto other keys (the drifted
// vector of refresh-drift).
func (ks *keySpace) hotness(batchKeys int, rotate int64) workload.Hotness {
	h := make(workload.Hotness, ks.n)
	for r := int64(0); r < ks.n; r++ {
		p := ks.zipf.CDF(r+1) - ks.zipf.CDF(r)
		h[ks.perm[(r+rotate)%ks.n]] = -math.Expm1(float64(batchKeys) * math.Log1p(-p))
	}
	return h
}

// request is one pre-generated arrival: when it is due, as an offset from
// the run's epoch, the GPU it goes to and the keys it asks for. announce,
// when set, is what the client tells the prefetcher just before sending:
// the keys of a request it will send a little later.
type request struct {
	at       time.Duration
	gpu      int
	keys     []int64
	announce []int64
}

// genOpenLoop draws one GPU's Poisson arrival schedule at rate requests per
// second covering [0, span), keysPerReq keys each; with lookahead > 0 every
// request announces the one lookahead places after it. It also returns the
// generator's cost per request in nanoseconds.
func genOpenLoop(ks *keySpace, r *rng.Rand, gpu int, rate float64, keysPerReq, lookahead int, span time.Duration) ([]request, float64) {
	start := time.Now()
	expect := int(rate*span.Seconds()*1.1) + 16
	backing := make([]int64, 0, expect*keysPerReq)
	reqs := make([]request, 0, expect)
	for now := r.Exp() / rate; now < span.Seconds(); now += r.Exp() / rate {
		off := len(backing)
		for i := 0; i < keysPerReq; i++ {
			backing = append(backing, ks.sample(r))
		}
		reqs = append(reqs, request{
			at: time.Duration(now * float64(time.Second)), gpu: gpu,
			keys: backing[off:len(backing):len(backing)],
		})
	}
	for i := 0; lookahead > 0 && i+lookahead < len(reqs); i++ {
		reqs[i].announce = reqs[i+lookahead].keys
	}
	return reqs, nsPer(time.Since(start), len(reqs))
}

// mergeByArrival interleaves per-GPU schedules into one, ordered by arrival.
func mergeByArrival(streams ...[]request) []request {
	var all []request
	for _, s := range streams {
		all = append(all, s...)
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].at < all[j].at })
	return all
}

// genPool draws count key sets of keysPerReq keys for the closed-loop
// clients to cycle through, and the generator's cost per set.
func genPool(ks *keySpace, r *rng.Rand, count, keysPerReq int) ([][]int64, float64) {
	start := time.Now()
	backing := make([]int64, count*keysPerReq)
	pool := make([][]int64, count)
	for i := range pool {
		keys := backing[i*keysPerReq : (i+1)*keysPerReq : (i+1)*keysPerReq]
		for j := range keys {
			keys[j] = ks.sample(r)
		}
		pool[i] = keys
	}
	return pool, nsPer(time.Since(start), count)
}

func nsPer(d time.Duration, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / float64(n)
}

// iteration is one pre-generated training step: every GPU's deduplicated
// keys, plus GPU 0's keys before deduplication for the dedup replay.
type iteration struct {
	batch extract.Batch
	raw0  []int64
}

// genIterations draws count training iterations of samplesPerGPU samples on
// each of gpus GPUs from the DLR dataset, and the cost per iteration.
func genIterations(ds *workload.DLRDataset, r *rng.Rand, count, gpus, samplesPerGPU int) ([]iteration, float64) {
	start := time.Now()
	its := make([]iteration, count)
	seen := make(map[int64]struct{})
	for i := range its {
		its[i].batch.Keys = make([][]int64, gpus)
		for g := 0; g < gpus; g++ {
			raw := ds.GenBatchWith(r, samplesPerGPU)
			if g == 0 {
				its[i].raw0 = raw
			}
			its[i].batch.Keys[g] = workload.Unique(raw, seen)
		}
	}
	return its, nsPer(time.Since(start), count)
}
