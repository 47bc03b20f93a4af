package core

import (
	"testing"

	"ugache/internal/emb"
	"ugache/internal/extract"
	"ugache/internal/platform"
	"ugache/internal/rng"
	"ugache/internal/workload"
)

// Hot-path microbenchmarks (run with `make bench`): the per-iteration
// lookup/extract costs that sit on the serving critical path. Results are
// tracked in BENCH_hotpath.json at the repo root.

func buildBench(b *testing.B, n int, functional bool) (*System, *platform.Platform) {
	b.Helper()
	p := platform.ServerC()
	cfg := Config{
		Platform:   p,
		Hotness:    testHotness(n, 1.1, 1),
		EntryBytes: 128,
		CacheRatio: 0.1,
	}
	if functional {
		table, err := emb.NewMaterialized("bench", int64(n), 32, emb.Float32, 7)
		if err != nil {
			b.Fatal(err)
		}
		cfg.EntryBytes = table.EntryBytes()
		cfg.Source = table
	}
	sys, err := Build(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return sys, p
}

func benchKeys(n int64, count int, seed uint64) []int64 {
	z, _ := workload.NewZipf(n, 1.1)
	r := rng.New(seed)
	scratch := make(map[int64]struct{})
	keys := make([]int64, count*4)
	for i := range keys {
		keys[i] = z.Sample(r)
	}
	uniq := workload.Unique(keys, scratch)
	if len(uniq) > count {
		uniq = uniq[:count]
	}
	return uniq
}

// BenchmarkLookup1 is the single-key functional lookup path.
func BenchmarkLookup1(b *testing.B) {
	sys, _ := buildBench(b, 20000, true)
	keys := benchKeys(20000, 1, 3)
	out := make([]byte, sys.Cache.EntryBytes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sys.Lookup(0, keys, out); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLookup256 is a typical request-sized functional gather.
func BenchmarkLookup256(b *testing.B) {
	sys, _ := buildBench(b, 20000, true)
	keys := benchKeys(20000, 256, 3)
	out := make([]byte, len(keys)*sys.Cache.EntryBytes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sys.Lookup(0, keys, out); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtractBatch is one iteration-sized simulated extraction across
// all 8 GPUs of server C.
func BenchmarkExtractBatch(b *testing.B) {
	sys, p := buildBench(b, 20000, false)
	batch := &extract.Batch{Keys: make([][]int64, p.N)}
	for g := 0; g < p.N; g++ {
		batch.Keys[g] = benchKeys(20000, 2048, uint64(g+1))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.ExtractBatch(batch); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuild is the benchmark's train-extract core.Build: ServerC, CR at
// scale 0.05 as procedural tables, hotness profiled from 96 warm batches of
// 2,048 samples, a 10 % cache ratio per GPU, functional. The arenas are made
// beside the UGache solve, then filled.
func BenchmarkBuild(b *testing.B) {
	p := platform.ServerC()
	ds, err := workload.CR.Build(0.05, 42)
	if err != nil {
		b.Fatal(err)
	}
	r := rng.New(42).Split("train-warm")
	warm := make([][]int64, 96)
	for i := range warm {
		warm[i] = ds.GenBatchWith(r, 2048)
	}
	hot, err := workload.ProfileBatches(ds.NumEntries(), warm)
	if err != nil {
		b.Fatal(err)
	}
	cfg := Config{Platform: p, Hotness: hot, EntryBytes: ds.MT.MaxEntryBytes(), CacheRatio: 0.10, Source: ds.MT}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
