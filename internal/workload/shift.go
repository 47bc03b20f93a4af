package workload

import (
	"fmt"
	"math"

	"ugache/internal/rng"
)

// ShiftingZipf generates a batch-indexed Zipf key stream whose distribution
// moves over time — the non-stationary scenario a drift-adaptive refresh
// must handle, the flash crowd: at one batch index the rank→key mapping
// rotates by a fixed offset, so a previously cold slice of the key space
// becomes the hot head overnight. Identity changes, skew does not.
//
// The generator is a function of (seeded rng, batch index): GenBatchAt draws
// the batch of any index, and ExpectedHotness reproduces the analytic
// per-batch hotness for any index so tests and benches can build "correct
// for phase X" placements without profiling.
type ShiftingZipf struct {
	z       *Zipf // the key space and the skew, which never moves
	shiftAt int
	rotate  int64
}

// NewFlashCrowd builds a stationary-skew stream whose rank→key mapping
// rotates by `rotate` keys starting at batch shiftAtBatch (the hottest rank
// maps to key rotate%n from then on). rotate 0 defaults to n/2 — the head
// lands in the middle of the previously cold region.
func NewFlashCrowd(n int64, alpha float64, shiftAtBatch int, rotate int64) (*ShiftingZipf, error) {
	z, err := NewZipf(n, alpha)
	if err != nil {
		return nil, err
	}
	if shiftAtBatch < 0 {
		return nil, fmt.Errorf("workload: flash crowd needs shiftAtBatch >= 0, got %d", shiftAtBatch)
	}
	if rotate == 0 {
		rotate = n / 2
	}
	rotate %= n
	if rotate < 0 {
		rotate += n
	}
	return &ShiftingZipf{z: z, shiftAt: shiftAtBatch, rotate: rotate}, nil
}

// keyAt maps a hotness rank to a key under the mapping in effect at the
// given batch index.
func (s *ShiftingZipf) keyAt(batch int, rank int64) int64 {
	if batch >= s.shiftAt {
		return (rank + s.rotate) % s.z.N
	}
	return rank
}

// GenBatchAt draws the batch of `size` keys at a batch index; the stream
// keeps no position, so replays and several modes running one schedule ask
// for the indices they want.
func (s *ShiftingZipf) GenBatchAt(r *rng.Rand, batch, size int) []int64 {
	keys := make([]int64, size)
	for i := range keys {
		keys[i] = s.keyAt(batch, s.z.Sample(r))
	}
	return keys
}

// ExpectedHotness returns the analytic per-batch presence hotness at a
// batch index, matching ProfileBatches semantics: for a batch of
// keysPerBatch draws, each key's hotness is its probability of appearing at
// least once (presence, since the extractor deduplicates batches).
func (s *ShiftingZipf) ExpectedHotness(batch, keysPerBatch int) Hotness {
	z := s.z
	h := make(Hotness, z.N)
	m := float64(keysPerBatch)
	for rank := int64(0); rank < z.N; rank++ {
		p := z.CDF(rank+1) - z.CDF(rank)
		h[s.keyAt(batch, rank)] = 1 - math.Pow(1-p, m)
	}
	return h
}
