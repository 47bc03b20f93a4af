package workload

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// Trace is a recorded sequence of key batches: the unit of record/replay
// used to feed identical access streams to every system under comparison.
type Trace struct {
	NumEntries int64
	Batches    [][]int64
}

// traceMagic guards the binary format.
const traceMagic = uint64(0x55474143_54524331) // "UGAC" "TRC1"

// Save writes the trace in a compact binary format.
func (t *Trace) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, v := range []uint64{traceMagic, uint64(t.NumEntries), uint64(len(t.Batches))} {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	for _, b := range t.Batches {
		if err := binary.Write(bw, binary.LittleEndian, uint64(len(b))); err != nil {
			return err
		}
		if err := binary.Write(bw, binary.LittleEndian, b); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// LoadTrace reads a trace written by Save.
func LoadTrace(r io.Reader) (*Trace, error) {
	br := bufio.NewReader(r)
	var magic, numEntries, numBatches uint64
	for _, p := range []*uint64{&magic, &numEntries, &numBatches} {
		if err := binary.Read(br, binary.LittleEndian, p); err != nil {
			return nil, fmt.Errorf("workload: trace header: %w", err)
		}
	}
	if magic != traceMagic {
		return nil, fmt.Errorf("workload: not a trace file (magic %x)", magic)
	}
	if numBatches > 1<<24 {
		return nil, fmt.Errorf("workload: implausible batch count %d", numBatches)
	}
	t := &Trace{NumEntries: int64(numEntries), Batches: make([][]int64, numBatches)}
	for i := range t.Batches {
		var n uint64
		if err := binary.Read(br, binary.LittleEndian, &n); err != nil {
			return nil, fmt.Errorf("workload: batch %d header: %w", i, err)
		}
		if n > 1<<28 {
			return nil, fmt.Errorf("workload: implausible batch size %d", n)
		}
		b := make([]int64, n)
		if err := binary.Read(br, binary.LittleEndian, b); err != nil {
			return nil, fmt.Errorf("workload: batch %d body: %w", i, err)
		}
		for _, k := range b {
			if k < 0 || k >= t.NumEntries {
				return nil, fmt.Errorf("workload: batch %d key %d outside [0, %d)", i, k, t.NumEntries)
			}
		}
		t.Batches[i] = b
	}
	return t, nil
}

// Record captures n batches from a generator into a trace.
func Record(numEntries int64, n int, gen func() []int64) *Trace {
	t := &Trace{NumEntries: numEntries, Batches: make([][]int64, 0, n)}
	for i := 0; i < n; i++ {
		b := gen()
		cp := make([]int64, len(b))
		copy(cp, b)
		t.Batches = append(t.Batches, cp)
	}
	return t
}

// HeldOutCoverage checks the hotness estimate against the trace itself: it
// profiles the first half of the batches and, for the hottest `fraction` of
// entries by that estimate, returns the share of a batch's distinct keys the
// estimate says they hold next to the share they do hold in the second half,
// which the profile never saw. The two agree when the estimate is honest
// about batches outside its recording.
func (t *Trace) HeldOutCoverage(fractions []float64) (predicted, delivered []float64, err error) {
	half := len(t.Batches) / 2
	if half == 0 {
		return nil, nil, fmt.Errorf("workload: a held-out check needs two batches, the trace has %d", len(t.Batches))
	}
	hot, err := ProfileBatches(t.NumEntries, t.Batches[:half])
	if err != nil {
		return nil, nil, err
	}
	later, err := countPresence(t.NumEntries, t.Batches[half:])
	if err != nil {
		return nil, nil, err
	}
	laterTotal := 0.0
	for _, c := range later {
		laterTotal += float64(c)
	}
	ranked := hot.Rank()
	for _, f := range fractions {
		got := 0.0
		for _, e := range ranked[:min(len(ranked), int(float64(len(ranked))*f))] {
			got += float64(later[e])
		}
		predicted = append(predicted, hot.TopShare(f))
		delivered = append(delivered, got/max(laterTotal, 1))
	}
	return predicted, delivered, nil
}
