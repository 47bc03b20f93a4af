package workload

import (
	"math"
	"testing"

	"ugache/internal/rng"
)

func TestFlashCrowdRotation(t *testing.T) {
	wl, err := NewFlashCrowd(100, 1.1, 10, 30)
	if err != nil {
		t.Fatal(err)
	}
	if wl.shiftAt != 10 {
		t.Fatalf("shift batch %d", wl.shiftAt)
	}
	pre := wl.ExpectedHotness(9, 50)
	post := wl.ExpectedHotness(10, 50)
	if argmax(pre) != 0 {
		t.Fatalf("pre-shift hottest key %d, want rank 0 = key 0", argmax(pre))
	}
	if argmax(post) != 30 {
		t.Fatalf("post-shift hottest key %d, want the rotation offset", argmax(post))
	}
	// The rotation permutes identities without touching the skew: the
	// hotness of rank r moves verbatim from key r to key (r+30)%100.
	for r := int64(0); r < 100; r++ {
		if post[(r+30)%100] != pre[r] {
			t.Fatalf("rank %d hotness %g became %g after the shift", r, pre[r], post[(r+30)%100])
		}
	}

	// rotate 0 defaults to n/2; negative offsets normalize mod n.
	half, err := NewFlashCrowd(100, 1.1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := argmax(half.ExpectedHotness(0, 50)); got != 50 {
		t.Fatalf("default rotation lands the head on key %d, want n/2", got)
	}
	neg, err := NewFlashCrowd(100, 1.1, 0, -10)
	if err != nil {
		t.Fatal(err)
	}
	if got := argmax(neg.ExpectedHotness(0, 50)); got != 90 {
		t.Fatalf("negative rotation lands the head on key %d, want 90", got)
	}
	if _, err := NewFlashCrowd(100, 1.1, -1, 0); err == nil {
		t.Fatal("negative shift batch accepted")
	}
}

func TestShiftingZipfReplay(t *testing.T) {
	wl, err := NewFlashCrowd(500, 1.0, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The stream keeps no position: a same-seeded rng asked for the same
	// indices in the same order reproduces the schedule draw for draw.
	r1, r2 := rng.New(3), rng.New(3)
	for b := 0; b < 8; b++ {
		replay := wl.GenBatchAt(r1, b, 64)
		live := wl.GenBatchAt(r2, b, 64)
		for i := range live {
			if live[i] != replay[i] {
				t.Fatalf("batch %d draw %d: stream %d, replay %d", b, i, live[i], replay[i])
			}
			if live[i] < 0 || live[i] >= 500 {
				t.Fatalf("key %d out of range", live[i])
			}
		}
	}
}

func TestExpectedHotnessPresence(t *testing.T) {
	wl, err := NewFlashCrowd(100, 1.1, 1000, 0)
	if err != nil {
		t.Fatal(err)
	}
	const m = 50
	h := wl.ExpectedHotness(0, m)
	z, err := NewZipf(100, 1.1)
	if err != nil {
		t.Fatal(err)
	}
	// Presence semantics: a key's hotness is the chance it appears at least
	// once in a batch of m draws (the extractor deduplicates batches).
	p0 := z.CDF(1) - z.CDF(0)
	if want := 1 - math.Pow(1-p0, m); math.Abs(h[0]-want) > 1e-12 {
		t.Fatalf("rank-0 presence %g, want %g", h[0], want)
	}
	for k := 1; k < 100; k++ {
		if h[k] > h[k-1] {
			t.Fatalf("presence not monotone in rank at key %d (%g > %g)", k, h[k], h[k-1])
		}
		if h[k] <= 0 || h[k] >= 1 {
			t.Fatalf("presence %g at key %d outside (0, 1)", h[k], k)
		}
	}
}

func argmax(h Hotness) int64 {
	best := int64(0)
	for i, v := range h {
		if v > h[best] {
			best = int64(i)
		}
	}
	return best
}

// TestGenBatchAtLookaheadReplay pins the replayability contract the serve
// layer's lookahead prefetch relies on: a peek stream generating batch b's
// keys L batches early (via explicit GenBatchAt indices on its own
// same-seeded rng) must produce byte-identical keys to the serve stream
// that later generates batch b via GenBatch — including across the
// flash-crowd rotation boundary, where the rank→key mapping changes
// between adjacent batch indices.
func TestGenBatchAtLookaheadReplay(t *testing.T) {
	const (
		size    = 256
		batches = 30
		shiftAt = 12
		L       = 8 // lookahead reaches across the rotation at shiftAt
	)
	wl, err := NewFlashCrowd(5000, 1.05, shiftAt, 0)
	if err != nil {
		t.Fatal(err)
	}
	const seed = 97
	peekR := rng.New(seed)
	serveR := rng.New(seed)

	// The peek stream runs L batches ahead: by the time the serve stream
	// draws batch b, batch b's keys were already peeked at time b-L. Both
	// rngs make identical call sequences (one size-draw batch per index in
	// order), so state only depends on how many batches were drawn.
	peeked := make([][]int64, 0, batches)
	for b := 0; b < L; b++ {
		peeked = append(peeked, wl.GenBatchAt(peekR, b, size))
	}
	for b := 0; b < batches; b++ {
		if b+L < batches {
			peeked = append(peeked, wl.GenBatchAt(peekR, b+L, size))
		}
		served := wl.GenBatchAt(serveR, b, size)
		if len(served) != size || len(peeked[b]) != size {
			t.Fatalf("batch %d: sizes %d/%d", b, len(peeked[b]), len(served))
		}
		for i := range served {
			if served[i] != peeked[b][i] {
				boundary := ""
				if b >= shiftAt && b-L < shiftAt {
					boundary = " (across the flash-crowd rotation boundary)"
				}
				t.Fatalf("batch %d key %d: peeked %d, served %d%s",
					b, i, peeked[b][i], served[i], boundary)
			}
		}
	}
	// Sanity: the rotation actually happened inside the replayed range, so
	// the boundary case above was exercised rather than vacuously skipped.
	preR, postR := rng.New(5), rng.New(5)
	pre := wl.GenBatchAt(preR, shiftAt-1, size)
	post := wl.GenBatchAt(postR, shiftAt, size)
	same := true
	for i := range pre {
		if pre[i] != post[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("rotation boundary had no effect on the key mapping")
	}
}
