package extract

import (
	"fmt"

	"ugache/internal/par"
	"ugache/internal/platform"
	"ugache/internal/sim"
)

// Scratch holds the reusable buffers of one extraction run — the per-GPU
// source-volume matrix and its per-tier split, the demand plan, the
// demand-index table, the message-based stages' gather volumes and link
// sums, and the fluid simulator's working state: what varies by batch. What
// does not (routes, dedications, time per byte) is the platform's, read in
// place. Every run has one: keeping a Scratch and passing it to Run makes
// every mechanism's steady-state extraction allocate only its Result; a nil
// scratch makes one per call.
//
// A Scratch is owned by one goroutine at a time. The Result returned by a
// scratch-backed run aliases the scratch (SrcBytes, TierBytes, TierSeconds,
// PerGPU, LinkBytes), whatever the mechanism, and is valid only until the
// scratch's next use; copy anything that must outlive it.
type Scratch struct {
	volBack []float64   // the volume matrix, then the two tier matrices
	vol     [][]float64 // their rows, in the same order
	demands []sim.Demand
	idxBack []int
	idx     [][]int
	perGPU  []float64
	gather  []float64 // MessageBased: per-GPU gather bytes
	links   []float64 // MessageBased: link bytes summed over the stages
	sim     sim.RunScratch
}

// NewScratch returns an empty Scratch; buffers grow on first use.
func NewScratch() *Scratch { return &Scratch{} }

// volMatrix returns a zeroed n-by-ns volume matrix and two zeroed
// n-by-NumTiers tier matrices, all carved from one scratch buffer.
func (sc *Scratch) volMatrix(n, ns int) (vol, tierBytes, tierSeconds [][]float64) {
	size := n * (ns + 2*platform.NumTiers)
	if cap(sc.volBack) < size {
		sc.volBack = make([]float64, size)
		sc.vol = make([][]float64, 3*n)
	}
	back := sc.volBack[:size]
	for i := range back {
		back[i] = 0
	}
	rows := sc.vol[:3*n]
	for r := range rows {
		w, off := ns, r*ns
		if r >= n {
			w, off = platform.NumTiers, n*ns+(r-n)*platform.NumTiers
		}
		rows[r] = back[off : off+w : off+w]
	}
	return rows[:n], rows[n : 2*n], rows[2*n:]
}

// idxMatrix returns an n-by-ns matrix filled with -1, backed by the scratch.
func (sc *Scratch) idxMatrix(n, ns int) [][]int {
	if cap(sc.idxBack) < n*ns {
		sc.idxBack = make([]int, n*ns)
		sc.idx = make([][]int, n)
	}
	back := sc.idxBack[:n*ns]
	for i := range back {
		back[i] = -1
	}
	idx := sc.idx[:n]
	for g := range idx {
		idx[g] = back[g*ns : (g+1)*ns : (g+1)*ns]
	}
	return idx
}

// zeroed returns (*buf)[:n] zeroed, growing *buf first when it is short.
func zeroed(buf *[]float64, n int) []float64 {
	if cap(*buf) < n {
		*buf = make([]float64, n)
	}
	out := (*buf)[:n]
	clear(out)
	return out
}

// groupParallelThreshold is the minimum total key count at which srcBytes
// fans the per-GPU grouping loops out across a worker pool; below it the
// goroutine handoff costs more than the scan.
const groupParallelThreshold = 1 << 12

// groupGPU accumulates GPU g's per-source byte volume for one key slice —
// the grouping step of the factored extraction (§5.1).
func (e *Extractor) groupGPU(g int, keys []int64, row []float64, eb float64, n int64) error {
	pl := e.Pl
	netSrc, hostSrc := platform.SourceID(-1), e.P.Host()
	if e.Owned != nil && e.P.HasNetwork() {
		netSrc = e.P.Network()
	}
	for _, k := range keys {
		if k < 0 || k >= n {
			return fmt.Errorf("extract: key %d outside [0, %d)", k, n)
		}
		src := pl.SourceOf(g, k)
		if src == netSrc && e.Owned(k) {
			// The local host shard owns this network-class key: serve it
			// over PCIe without crossing the wire (the owned leg of the
			// solver's blended network column).
			src = hostSrc
		}
		row[src] += eb
	}
	return nil
}

// srcBytes groups a batch by source location: bytes[g][j] = bytes GPU g
// pulls from source j under the placement's access arrangement. Staged keys
// (Batch.Staged, the lookahead prefetch hits) bypass the placement and are
// charged as local HBM reads — the staged-source plan. Large batches are
// grouped one GPU per par.Each index, so each matrix row has one writer.
// The grouped matrix is then split by tier (splitTiers) into res, which
// holds the three scratch-backed matrices for the mechanism to finish.
func (e *Extractor) srcBytes(b *Batch, sc *Scratch) (*Result, error) {
	if len(b.Keys) != e.P.N {
		return nil, fmt.Errorf("extract: batch has %d GPUs, platform %d", len(b.Keys), e.P.N)
	}
	if b.Staged != nil && len(b.Staged) != e.P.N {
		return nil, fmt.Errorf("extract: staged plan has %d GPUs, platform %d", len(b.Staged), e.P.N)
	}
	eb := e.entryBytes()
	n := e.Pl.NumEntries()
	out, tierBytes, tierSeconds := sc.volMatrix(e.P.N, e.P.NumSources())
	res := &Result{SrcBytes: out, TierBytes: tierBytes, TierSeconds: tierSeconds}
	// Staged keys are few (bounded by the staging arena) and need only a
	// range check, so they are folded in up front on the sequential path.
	for g, staged := range b.Staged {
		for _, k := range staged {
			if k < 0 || k >= n {
				return nil, fmt.Errorf("extract: staged key %d outside [0, %d)", k, n)
			}
		}
		out[g][g] += eb * float64(len(staged))
	}
	total, nonEmpty := 0, 0
	for _, keys := range b.Keys {
		total += len(keys)
		if len(keys) > 0 {
			nonEmpty++
		}
	}
	workers := par.Workers(nonEmpty, 1)
	if total < groupParallelThreshold || workers < 2 {
		for g := range out {
			if err := e.groupGPU(g, b.Keys[g], out[g], eb, n); err != nil {
				return nil, err
			}
		}
	} else if err := par.Each(e.P.N, workers, func(_, g int) error {
		return e.groupGPU(g, b.Keys[g], out[g], eb, n)
	}); err != nil {
		return nil, err
	}
	if err := e.splitTiers(res); err != nil {
		return nil, err
	}
	return res, nil
}

// splitTiers folds each GPU's per-source volumes into its per-tier bytes
// and modelled seconds: the one place an extraction is split by tier, and
// the one walk over every (GPU, source) volume, so it is also where a route
// to a source the GPU cannot reach is refused, for every mechanism.
func (e *Extractor) splitTiers(res *Result) error {
	tpb := e.P.TimePerByteTable()
	for g, row := range res.SrcBytes {
		for j, bytes := range row {
			if bytes == 0 {
				continue
			}
			src := platform.SourceID(j)
			if _, ok := e.P.Path(g, src); !ok {
				return fmt.Errorf("extract: gpu %d routed to unreachable source %d", g, j)
			}
			t := e.P.Tier(g, src)
			res.TierBytes[g][t] += bytes
			res.TierSeconds[g][t] += bytes * tpb[g][j]
		}
	}
	return nil
}
