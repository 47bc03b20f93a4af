package solver

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"ugache/internal/platform"
)

// The binary placement format lets a deployment solve once (the paper's
// ~10 s MILP) and reuse the placement across restarts, as the Refresher's
// infrequent-update design intends (§7.2).
const placementMagic = uint64(0x55474143_504c3031) // "UGAC" "PL01"

// Save writes the placement in a compact binary format.
func (pl *Placement) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	writeU64 := func(v uint64) error { return binary.Write(bw, binary.LittleEndian, v) }
	if err := writeU64(placementMagic); err != nil {
		return err
	}
	if err := writeU64(uint64(len(pl.Policy))); err != nil {
		return err
	}
	if _, err := bw.WriteString(pl.Policy); err != nil {
		return err
	}
	for _, v := range []uint64{
		uint64(pl.NumGPUs), uint64(pl.EntryBytes),
		uint64(len(pl.Rank)), uint64(len(pl.Blocks)),
	} {
		if err := writeU64(v); err != nil {
			return err
		}
	}
	if err := binary.Write(bw, binary.LittleEndian, pl.ByRank); err != nil {
		return err
	}
	for bi := range pl.Blocks {
		b := &pl.Blocks[bi]
		if err := binary.Write(bw, binary.LittleEndian, uint64(b.Start)); err != nil {
			return err
		}
		if err := binary.Write(bw, binary.LittleEndian, uint64(b.End)); err != nil {
			return err
		}
		if err := binary.Write(bw, binary.LittleEndian, b.HotPerEntry); err != nil {
			return err
		}
		for g := 0; g < pl.NumGPUs; g++ {
			v := uint8(0)
			if b.Store[g] {
				v = 1
			}
			if err := bw.WriteByte(v); err != nil {
				return err
			}
		}
		for g := 0; g < pl.NumGPUs; g++ {
			if err := binary.Write(bw, binary.LittleEndian, int32(b.Access[g])); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// LoadPlacement reads a placement written by Save and rebuilds the derived
// indices (Rank, the rank→block map). EstTimes and LowerBound are not
// persisted; re-evaluate with EstimateTimes if needed. What it allocates
// follows the bytes it has read, so a header that promises more than the
// input holds fails at the input's end instead of reserving the promise.
func LoadPlacement(r io.Reader) (*Placement, error) {
	br := bufio.NewReader(r)
	readU64 := func() (uint64, error) {
		var v uint64
		err := binary.Read(br, binary.LittleEndian, &v)
		return v, err
	}
	magic, err := readU64()
	if err != nil {
		return nil, fmt.Errorf("solver: placement header: %w", err)
	}
	if magic != placementMagic {
		return nil, fmt.Errorf("solver: not a placement file (magic %x)", magic)
	}
	nameLen, err := readU64()
	if err != nil {
		return nil, err
	}
	if nameLen > 1024 {
		return nil, fmt.Errorf("solver: implausible policy-name length %d", nameLen)
	}
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(br, name); err != nil {
		return nil, err
	}
	var gpus, entryBytes, entries, blocks uint64
	for _, p := range []*uint64{&gpus, &entryBytes, &entries, &blocks} {
		if *p, err = readU64(); err != nil {
			return nil, err
		}
	}
	// Ranks are int32, and every block holds at least one of them.
	if gpus == 0 || gpus > 1024 || entries > math.MaxInt32 || blocks > entries {
		return nil, fmt.Errorf("solver: implausible placement shape (%d gpus, %d entries, %d blocks)",
			gpus, entries, blocks)
	}
	pl := &Placement{Policy: string(name), NumGPUs: int(gpus), EntryBytes: int(entryBytes)}
	if pl.ByRank, err = readRanks(br, int(entries)); err != nil {
		return nil, err
	}
	pl.Rank = make([]int32, entries)
	for e := range pl.Rank {
		pl.Rank[e] = -1
	}
	for r0, e := range pl.ByRank {
		if e < 0 || int(e) >= len(pl.Rank) || pl.Rank[e] >= 0 {
			return nil, fmt.Errorf("solver: rank %d maps to bad or repeated entry %d", r0, e)
		}
		pl.Rank[e] = int32(r0)
	}
	var prevEnd int64
	for bi := 0; bi < int(blocks); bi++ {
		start, err := readU64()
		if err != nil {
			return nil, err
		}
		end, err := readU64()
		if err != nil {
			return nil, err
		}
		b := Block{Start: int64(start), End: int64(end)}
		if b.Start != prevEnd || b.End <= b.Start || b.End > int64(entries) {
			return nil, fmt.Errorf("solver: block %d range [%d, %d) does not tile", bi, b.Start, b.End)
		}
		prevEnd = b.End
		if err := binary.Read(br, binary.LittleEndian, &b.HotPerEntry); err != nil {
			return nil, err
		}
		b.Store = make([]bool, gpus)
		for g := range b.Store {
			v, err := br.ReadByte()
			if err != nil {
				return nil, err
			}
			b.Store[g] = v != 0
		}
		b.Access = make([]platform.SourceID, gpus)
		for g := range b.Access {
			var v int32
			if err := binary.Read(br, binary.LittleEndian, &v); err != nil {
				return nil, err
			}
			// gpus is Host, gpus+1 the cluster Network tier.
			if v < 0 || v > int32(gpus)+1 {
				return nil, fmt.Errorf("solver: block %d access %d out of range", bi, v)
			}
			b.Access[g] = platform.SourceID(v)
		}
		pl.Blocks = append(pl.Blocks, b)
	}
	if prevEnd != int64(entries) {
		return nil, fmt.Errorf("solver: blocks cover %d of %d entries", prevEnd, entries)
	}
	pl.blockOfRank = make([]int32, entries)
	for bi := range pl.Blocks {
		for r0 := pl.Blocks[bi].Start; r0 < pl.Blocks[bi].End; r0++ {
			pl.blockOfRank[r0] = int32(bi)
		}
	}
	return pl, nil
}

// rankChunk is how many ranks readRanks reads, and grows its result by, at a
// time.
const rankChunk = 1 << 16

// readRanks reads n little-endian int32 ranks, growing the result with what
// it has read rather than reserving n up front.
func readRanks(r io.Reader, n int) ([]int32, error) {
	buf := make([]byte, 4*min(n, rankChunk))
	out := make([]int32, 0, min(n, rankChunk))
	for len(out) < n {
		chunk := buf[:4*min(n-len(out), rankChunk)]
		if _, err := io.ReadFull(r, chunk); err != nil {
			return nil, fmt.Errorf("solver: placement ranks after %d of %d: %w", len(out), n, err)
		}
		for i := 0; i < len(chunk); i += 4 {
			out = append(out, int32(binary.LittleEndian.Uint32(chunk[i:])))
		}
	}
	return out, nil
}
