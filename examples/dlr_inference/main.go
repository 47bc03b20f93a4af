// DLR inference: a recommendation-serving scenario in the style of the
// paper's §8 DLR evaluation — a hundred embedding tables flattened behind
// one multi-GPU cache, skewed request streams, and a §7.2 background
// refresh when the popularity distribution drifts (a new daily trace).
//
//	go run ./examples/dlr_inference
package main

import (
	"fmt"
	"log"

	"ugache"
)

const (
	numTables      = 100
	entriesPer     = 20_000
	dim            = 128
	batchSize      = 2048 // inference samples per GPU per iteration
	profileBatches = 64
)

func main() {
	p := ugache.ServerC()

	// One hundred embedding tables flattened into a single key space, as
	// DLR serving systems do.
	tables := make([]*ugache.Table, numTables)
	for t := range tables {
		tb, err := ugache.NewTable(fmt.Sprintf("table%d", t), entriesPer, dim, ugache.Float32, uint64(t)+1)
		if err != nil {
			log.Fatal(err)
		}
		tables[t] = tb
	}
	mt, err := ugache.NewMultiTable(tables)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d tables, %d entries, %.1f GB of embeddings\n",
		numTables, mt.NumEntries(), float64(mt.TotalBytes())/(1<<30))

	// Per-table Zipf request streams (one key per table per sample).
	zipf, err := ugache.NewZipf(entriesPer, 1.2)
	if err != nil {
		log.Fatal(err)
	}
	r := ugache.NewRand(7)
	scratch := make(map[int64]struct{})
	drifted := false // once set, each table's Zipf rank i is its key entriesPer-1-i
	genBatch := func() []int64 {
		raw := make([]int64, 0, batchSize*numTables)
		for s := 0; s < batchSize; s++ {
			for t := 0; t < numTables; t++ {
				k := zipf.Sample(r)
				if drifted {
					k = entriesPer - 1 - k
				}
				raw = append(raw, mt.Offset(t)+k)
			}
		}
		return ugache.UniqueKeys(raw, scratch)
	}

	// Warm-up profiling, then build.
	var profile [][]int64
	for i := 0; i < profileBatches; i++ {
		profile = append(profile, genBatch())
	}
	hot, err := ugache.ProfileBatches(mt.NumEntries(), profile)
	if err != nil {
		log.Fatal(err)
	}
	sys, err := ugache.New(ugache.Config{
		Platform:   p,
		Hotness:    hot,
		EntryBytes: mt.MaxEntryBytes(),
		CacheRatio: 0.10,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Steady-state serving: per-iteration extraction latency.
	iter := func() float64 {
		b := &ugache.Batch{Keys: make([][]int64, p.N)}
		for g := range b.Keys {
			b.Keys[g] = genBatch()
		}
		res, err := sys.ExtractBatch(b, nil)
		if err != nil {
			log.Fatal(err)
		}
		return res.Time
	}
	base := 0.0
	for i := 0; i < 5; i++ {
		base += iter()
	}
	base /= 5
	fmt.Printf("steady-state extraction: %.3f ms/iteration\n", base*1e3)

	// One day the trace drifts: yesterday's cold keys are hot. The
	// foreground sampler records the drifted stream (§7.2), and its hotness
	// is what the trigger checks and the refresh solves against.
	drifted = true
	sampler := ugache.NewHotnessSampler(mt.NumEntries(), 4)
	for i := 0; i < 32; i++ {
		sampler.Observe(genBatch())
	}
	measured, err := sampler.Hotness()
	if err != nil {
		log.Fatal(err)
	}
	trigger, err := sys.ShouldRefresh(measured, 0.10)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("drift detected, refresh triggered: %v\n", trigger)

	// Pace the update batches so the refresh spreads over ~20 s with a
	// ~40% duty cycle (≈10% mean foreground impact), as in the paper's
	// Fig. 17 operating point.
	cfg := ugache.DefaultRefreshConfig()
	cfg.BatchEntries = mt.NumEntries() / 128
	cfg.UpdateBandwidth = float64(2*mt.NumEntries()*int64(mt.MaxEntryBytes())) * 2.5 / 20
	perStep := float64(cfg.BatchEntries*int64(mt.MaxEntryBytes())) / cfg.UpdateBandwidth
	cfg.PauseSeconds = 1.5 * perStep
	rep, err := sys.Refresh(measured, base, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("refresh: %.1f s total (%.1f s solve), %d evicted, %d inserted, mean impact %.1f%%\n",
		rep.Duration, rep.SolveSeconds, rep.EvictedEntries, rep.InsertedEntries, rep.MeanImpact*100)
}
