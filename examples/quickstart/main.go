// Quickstart: build a UGache system on the simulated 8×A100 server, look up
// real embedding bytes through the multi-GPU cache, and compare the
// factored extraction mechanism against the naive baselines.
//
//	go run ./examples/quickstart
package main

import (
	"bytes"
	"fmt"
	"log"

	"ugache"
)

func main() {
	// The paper's Server C: eight A100s behind NVSwitch.
	p := ugache.ServerC()
	fmt.Printf("platform: %s (%d × %s)\n", p.Name, p.N, p.GPU.Name)

	// A host-resident embedding table with real bytes (small enough to
	// materialize; production-sized tables use ugache.NewTable, which
	// generates rows deterministically on read).
	const entries, dim = 100_000, 128
	table, err := ugache.NewMaterializedTable("emb", entries, dim, ugache.Float32, 42)
	if err != nil {
		log.Fatal(err)
	}

	// Skewed access: a Zipf-1.2 key stream, like the paper's synthetic DLR
	// workloads. Profile some batches to measure hotness (§6.1).
	zipf, err := ugache.NewZipf(entries, 1.2)
	if err != nil {
		log.Fatal(err)
	}
	rng := ugache.NewRand(1)
	genBatch := func(keys int) []int64 {
		raw := make([]int64, keys)
		for i := range raw {
			raw[i] = zipf.Sample(rng)
		}
		return ugache.UniqueKeys(raw, nil)
	}
	var profile [][]int64
	for i := 0; i < 64; i++ {
		profile = append(profile, genBatch(50_000))
	}
	hot, err := ugache.ProfileBatches(entries, profile)
	if err != nil {
		log.Fatal(err)
	}

	// Build: solve the cache policy (§6), fill the simulated GPU caches.
	sys, err := ugache.New(ugache.Config{
		Platform:   p,
		Hotness:    hot,
		EntryBytes: table.EntryBytes(),
		CacheRatio: 0.08, // 8% of all entries per GPU
		Source:     table,
	})
	if err != nil {
		log.Fatal(err)
	}
	st := sys.Stats()[0]
	fmt.Printf("solved policy: %.1f%% local / %.1f%% remote / %.1f%% host (modelled)\n",
		st.Local*100, st.Remote*100, st.Host*100)

	// Functional lookup: GPU 3 gathers rows through the multi-GPU cache;
	// the bytes match the host table exactly.
	keys := []int64{0, 7, 99_999, 12_345}
	out := make([]byte, len(keys)*table.EntryBytes())
	if err := sys.Lookup(3, keys, out, nil); err != nil {
		log.Fatal(err)
	}
	row := make([]byte, table.EntryBytes())
	for i, k := range keys {
		if err := table.ReadRow(k, row); err != nil {
			log.Fatal(err)
		}
		if !bytes.Equal(out[i*table.EntryBytes():(i+1)*table.EntryBytes()], row) {
			log.Fatalf("lookup mismatch for key %d", k)
		}
	}
	fmt.Printf("lookup: %d rows gathered and verified against the host table\n", len(keys))

	// Simulated extraction timing: one data-parallel iteration (every GPU
	// extracts its own batch), under the three mechanisms of §3.2/§5.
	batch := &ugache.Batch{Keys: make([][]int64, p.N)}
	for g := range batch.Keys {
		batch.Keys[g] = genBatch(200_000)
	}
	for _, m := range []ugache.Mechanism{ugache.MessageBased, ugache.PeerRandom, ugache.Factored} {
		res, err := sys.Extractor().Run(m, batch, nil)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("extraction (%-13s): %7.3f ms\n", m, res.Time*1e3)
	}
}
