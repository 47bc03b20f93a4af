package workload

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"ugache/internal/emb"
	"ugache/internal/par"
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
// a generator of its own (GenBatch), so what one reader sees never
// depends on who else has read.
type DLRDataset struct {
	Spec  DLRSpec
	MT    *emb.MultiTable
	zipfs []*Zipf
}

// Build constructs the dataset at the given scale. Table sizes scale down
// with a floor of 64 entries each. The tables and their samplers (each
// sampler's guide costs guideBuckets+1 powers) are built by up to GOMAXPROCS
// workers claiming them in order; the first table's error, in table order,
// wins, as it would building them one by one.
func (s DLRSpec) Build(scale float64, seed uint64) (*DLRDataset, error) {
	if !(scale > 0) {
		return nil, fmt.Errorf("workload: scale must be positive, got %g", scale)
	}
	if len(s.TableSizes) == 0 {
		return nil, fmt.Errorf("workload: spec %q has no tables", s.Name)
	}
	tables := make([]*emb.Table, len(s.TableSizes))
	zipfs := make([]*Zipf, len(s.TableSizes))
	err := par.Each(len(tables), par.Workers(len(tables), 1), func(_, i int) (err error) {
		tables[i], zipfs[i], err = s.buildTable(i, scale, seed)
		return err
	})
	if err != nil {
		return nil, err
	}
	mt, err := emb.NewMultiTable(tables)
	if err != nil {
		return nil, err
	}
	return &DLRDataset{Spec: s, MT: mt, zipfs: zipfs}, nil
}

// buildTable builds table i of the spec at the given scale and its sampler.
func (s DLRSpec) buildTable(i int, scale float64, seed uint64) (*emb.Table, *Zipf, error) {
	size := float64(s.TableSizes[i]) * scale
	if size >= math.MaxInt64 {
		return nil, nil, fmt.Errorf("workload: spec %q table %d has %g entries at scale %g", s.Name, i, size, scale)
	}
	n := max(int64(size), 64)
	t, err := emb.New(fmt.Sprintf("%s-t%d", s.Name, i), n, s.Dim, s.DType, seed+uint64(i)*7919)
	if err != nil {
		return nil, nil, err
	}
	z, err := NewZipf(n, s.Alpha)
	if err != nil {
		return nil, nil, err
	}
	return t, z, nil
}

// NumEntries returns the flattened entry count.
func (d *DLRDataset) NumEntries() int64 { return d.MT.NumEntries() }

// minKeysPerWorker is the fewest draws GenBatch hands one goroutine: a
// start (~1 µs) is under 1 % of their time, and a request's draws stay inline.
const minKeysPerWorker = 4096

// GenBatch draws one inference batch of batchSize ≥ 0 samples from r (0
// gives an empty batch) and returns the flattened keys (batchSize ×
// numTables keys, duplicates possible; the extractor deduplicates). The
// uniforms are drawn from r in order, in chunks of whole samples of at least
// minKeysPerWorker keys, and each chunk is ranked in place on a goroutine of
// its own as soon as it is drawn, the last on the caller, so ranking runs
// beside the drawing; keys and r's state are those of drawing one key at a
// time. On one processor, or a batch of less than two chunks, it draws the
// whole batch and then ranks it.
func (d *DLRDataset) GenBatch(r *rng.Rand, batchSize int) []int64 {
	nt := len(d.zipfs)
	keys := make([]int64, batchSize*nt)
	per := (minKeysPerWorker + nt - 1) / nt * nt // keys in a chunk
	if runtime.GOMAXPROCS(0) == 1 || len(keys) < 2*per {
		drawInto(r, keys)
		d.rankDraws(keys)
		return keys
	}
	var wg sync.WaitGroup
	for lo := 0; lo < len(keys); lo += per {
		chunk := keys[lo:min(lo+per, len(keys))]
		drawInto(r, chunk)
		if lo+per >= len(keys) {
			d.rankDraws(chunk)
			break
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			d.rankDraws(chunk)
		}()
	}
	wg.Wait()
	return keys
}

// GenBatchWith draws as GenBatch does. It goes once benchmark/ stops calling
// it.
func (d *DLRDataset) GenBatchWith(r *rng.Rand, batchSize int) []int64 {
	return d.GenBatch(r, batchSize)
}

// drawInto parks the next len(dst) uniforms of r in dst, as their bits.
func drawInto(r *rng.Rand, dst []int64) {
	for i := range dst {
		dst[i] = int64(math.Float64bits(r.Float64()))
	}
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
