package workload

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"ugache/internal/emb"
	"ugache/internal/rng"
)

// DLRSpec describes a scaled stand-in for one of the paper's DLR datasets
// (Table 3): a set of embedding tables and the per-table key popularity.
// Each inference sample draws one key from every table (§8.1: "each request
// contains a single key for each table").
type DLRSpec struct {
	Name string
	// TableSizes are entry counts per table at Scale = 1.
	TableSizes []int64
	Dim        int
	DType      emb.DType
	Alpha      float64 // within-table Zipf skew
}

// criteoTableSizes spreads 8.82M entries (1/100 of Criteo-TB's 882M) over
// 26 tables with the log-scale size spread of the real dataset: a few huge
// tables dominate, many are tiny.
func criteoTableSizes() []int64 {
	sizes := make([]int64, 26)
	// Geometric spread over ~4 decades, largest first.
	total := int64(0)
	for i := range sizes {
		sizes[i] = int64(3_000_000 / math.Pow(1.55, float64(i)))
		if sizes[i] < 100 {
			sizes[i] = 100
		}
		total += sizes[i]
	}
	// Normalize to 8.82M.
	target := int64(8_820_000)
	for i := range sizes {
		sizes[i] = sizes[i] * target / total
		if sizes[i] < 100 {
			sizes[i] = 100
		}
	}
	return sizes
}

func uniformTables(n int, each int64) []int64 {
	sizes := make([]int64, n)
	for i := range sizes {
		sizes[i] = each
	}
	return sizes
}

// The paper's DLR datasets (Table 3), at 1/100 scale.
var (
	// CR stands in for Criteo-TB: 26 tables, real-trace-like skew.
	CR = DLRSpec{Name: "CR", TableSizes: criteoTableSizes(), Dim: 128,
		DType: emb.Float32, Alpha: 1.2}
	// SYNA is SYN-A: 100 uniform tables, Zipf alpha = 1.2.
	SYNA = DLRSpec{Name: "SYN-A", TableSizes: uniformTables(100, 80_000),
		Dim: 128, DType: emb.Float32, Alpha: 1.2}
	// SYNB is SYN-B: 100 uniform tables, Zipf alpha = 1.4.
	SYNB = DLRSpec{Name: "SYN-B", TableSizes: uniformTables(100, 80_000),
		Dim: 128, DType: emb.Float32, Alpha: 1.4}
)

// DLRDatasets lists the stock specs in the paper's presentation order.
var DLRDatasets = []DLRSpec{CR, SYNA, SYNB}

// DLRSpecByName returns the stock spec with the given name — what the
// commands' -dataset flag names.
func DLRSpecByName(name string) (DLRSpec, error) {
	for _, s := range DLRDatasets {
		if s.Name == name {
			return s, nil
		}
	}
	return DLRSpec{}, fmt.Errorf("unknown dataset %q (have CR, SYN-A, SYN-B)", name)
}

// DLRDataset is a built DLR workload: the flattened tables plus per-table
// key samplers. It is immutable once built: every reader draws batches from
// a generator of its own (GenBatchWith), so what one reader sees never
// depends on who else has read.
type DLRDataset struct {
	Spec  DLRSpec
	MT    *emb.MultiTable
	zipfs []*Zipf
}

// Build constructs the dataset at the given scale. Table sizes scale down
// with a floor of 64 entries each.
func (s DLRSpec) Build(scale float64, seed uint64) (*DLRDataset, error) {
	if !(scale > 0) {
		return nil, fmt.Errorf("workload: scale must be positive, got %g", scale)
	}
	if len(s.TableSizes) == 0 {
		return nil, fmt.Errorf("workload: spec %q has no tables", s.Name)
	}
	tables := make([]*emb.Table, len(s.TableSizes))
	zipfs := make([]*Zipf, len(s.TableSizes))
	for i, base := range s.TableSizes {
		size := float64(base) * scale
		if size >= math.MaxInt64 {
			return nil, fmt.Errorf("workload: spec %q table %d has %g entries at scale %g", s.Name, i, size, scale)
		}
		n := int64(size)
		if n < 64 {
			n = 64
		}
		t, err := emb.New(fmt.Sprintf("%s-t%d", s.Name, i), n, s.Dim, s.DType, seed+uint64(i)*7919)
		if err != nil {
			return nil, err
		}
		tables[i] = t
		z, err := NewZipf(n, s.Alpha)
		if err != nil {
			return nil, err
		}
		zipfs[i] = z
	}
	mt, err := emb.NewMultiTable(tables)
	if err != nil {
		return nil, err
	}
	return &DLRDataset{Spec: s, MT: mt, zipfs: zipfs}, nil
}

// NumEntries returns the flattened entry count.
func (d *DLRDataset) NumEntries() int64 { return d.MT.NumEntries() }

// minKeysPerWorker is the fewest draws GenBatchWith hands one goroutine: a
// start (~1 µs) is under 1 % of their time, and a request's draws stay inline.
const minKeysPerWorker = 4096

// GenBatchWith draws one inference batch of batchSize ≥ 0 samples from r (0
// gives an empty batch) and returns the flattened keys (batchSize ×
// numTables keys, duplicates possible; the extractor deduplicates). Every
// uniform is drawn from r in order, then ranked in place on up to GOMAXPROCS
// goroutines, so keys and r's state are those of drawing one key at a time.
func (d *DLRDataset) GenBatchWith(r *rng.Rand, batchSize int) []int64 {
	nt := len(d.zipfs)
	keys := make([]int64, batchSize*nt)
	for i := range keys {
		keys[i] = int64(math.Float64bits(r.Float64()))
	}
	workers := min(runtime.GOMAXPROCS(0), len(keys)/minKeysPerWorker)
	if workers <= 1 {
		d.rankDraws(keys)
		return keys
	}
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			d.rankDraws(keys[lo*nt : hi*nt])
		}(batchSize*w/workers, batchSize*(w+1)/workers)
	}
	wg.Wait()
	return keys
}

// rankDraws turns whole samples of parked uniforms into keys in place.
func (d *DLRDataset) rankDraws(keys []int64) {
	for s := 0; s < len(keys); s += len(d.zipfs) {
		for t, z := range d.zipfs {
			keys[s+t] = d.MT.Offset(t) + z.Rank(math.Float64frombits(uint64(keys[s+t])))
		}
	}
}

// KeysPerSample returns how many keys one inference sample contributes.
func (d *DLRDataset) KeysPerSample() int { return len(d.zipfs) }

// Unique deduplicates keys, returning them in first-seen order. The scratch
// map is cleared and reused when non-nil.
func Unique(keys []int64, scratch map[int64]struct{}) []int64 {
	if scratch == nil {
		scratch = make(map[int64]struct{}, len(keys))
	} else {
		clear(scratch)
	}
	out := make([]int64, 0, len(keys))
	for _, k := range keys {
		if _, ok := scratch[k]; ok {
			continue
		}
		scratch[k] = struct{}{}
		out = append(out, k)
	}
	return out
}
