package cache

import (
	"math"
	"testing"

	"ugache/internal/rng"
	"ugache/internal/workload"
)

// TestHotnessSamplerUnevenShards pins the multi-shard merge semantics:
// per-entry hotness is normalized by the batch total across *all* shards,
// not per shard, so shards that observed different batch counts still merge
// into one consistent expected-accesses-per-iteration estimate.
func TestHotnessSamplerUnevenShards(t *testing.T) {
	s := NewHotnessSampler(8, 1)
	s.Shard(0).Observe([]int64{0, 1})
	s.Shard(0).Observe([]int64{0, 2})
	s.Shard(0).Observe([]int64{0, 1})
	// Shard 2 (shard 1 is created but never observed): one batch with an
	// in-batch duplicate that must count once.
	s.Shard(2).Observe([]int64{3, 3, 7})
	if got := s.Batches(); got != 4 {
		t.Fatalf("sampled %d batches, want 4", got)
	}
	h, err := s.Hotness()
	if err != nil {
		t.Fatal(err)
	}
	// Keys 4-6 were never seen: three entries seen once over three never seen
	// is one sighting's worth each, 0.25 (they read 0 while the sampler did no
	// smoothing).
	want := workload.Hotness{0.75, 0.5, 0.25, 0.25, 0.25, 0.25, 0.25, 0.25}
	for i := range want {
		if math.Abs(h[i]-want[i]) > 1e-12 {
			t.Fatalf("hotness %v, want %v", h, want)
		}
	}

	// HotnessInto merges into a caller buffer and reports the batch count.
	buf := make(workload.Hotness, 8)
	batches, err := s.HotnessInto(buf)
	if err != nil {
		t.Fatal(err)
	}
	if batches != 4 {
		t.Fatalf("merge covered %d batches, want 4", batches)
	}
	for i := range want {
		if math.Abs(buf[i]-want[i]) > 1e-12 {
			t.Fatalf("merged hotness %v, want %v", buf, want)
		}
	}
	if _, err := s.HotnessInto(make(workload.Hotness, 7)); err == nil {
		t.Fatal("short buffer accepted")
	}
	if s.NumEntries() != 8 {
		t.Fatalf("NumEntries %d", s.NumEntries())
	}

	// Reset starts a fresh window: no batches, empty-window error, and the
	// next observation counts from zero.
	s.Reset()
	if got := s.Batches(); got != 0 {
		t.Fatalf("batches %d after reset", got)
	}
	if _, err := s.Hotness(); err == nil {
		t.Fatal("reset sampler produced hotness from nothing")
	}
	s.Shard(0).Observe([]int64{5})
	h, err = s.Hotness()
	if err != nil {
		t.Fatal(err)
	}
	// Key 0, in every batch before the reset, now reads like key 4, which no
	// batch ever held.
	if h[5] != 1 || h[0] != h[4] || h[0] >= h[5] {
		t.Fatalf("post-reset hotness %v", h)
	}
}

// observeBatches feeds wl's batches [from, to) at the given batch size into
// the sampler's shard 0 (GenBatchAt, so the stream index is explicit and the
// detector tests can jump across a flash-crowd shift).
func observeBatches(t *testing.T, s *HotnessSampler, wl *workload.ShiftingZipf, r *rng.Rand, from, to, size int) {
	t.Helper()
	scratch := make(map[int64]struct{})
	for b := from; b < to; b++ {
		s.Observe(workload.Unique(wl.GenBatchAt(r, b, size), scratch))
	}
}

// TestDriftDetectorStationaryAndShift drives the detector through the drift
// bench's scenario in miniature: a stationary Zipf stream scores quiet
// against its analytic reference; a flash-crowd key rotation collapses the
// mass-weighted top-K overlap and trips the trigger; rebasing onto the
// measured post-shift hotness makes the detector quiet again.
func TestDriftDetectorStationaryAndShift(t *testing.T) {
	const (
		n     = 4096
		kpb   = 512
		shift = 100
	)
	wl, err := workload.NewFlashCrowd(n, 1.1, shift, 0)
	if err != nil {
		t.Fatal(err)
	}
	ref := wl.ExpectedHotness(0, kpb)
	s := NewHotnessSampler(n, 1)
	det, err := NewDriftDetector(s, ref, DriftConfig{MinBatches: 8, MaxBatches: 64, Threshold: 0.45})
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(11)

	// An empty window cannot be scored.
	if _, err := det.Check(); err == nil {
		t.Fatal("empty window accepted")
	}

	// A short window reports its scores but may not declare drift.
	observeBatches(t, s, wl, r, 0, 4, kpb)
	st, err := det.Check()
	if err != nil {
		t.Fatal(err)
	}
	if st.Batches != 4 {
		t.Fatalf("window %d batches, want 4", st.Batches)
	}
	if st.Drifted {
		t.Fatalf("%d-batch window declared drift (MinBatches 8)", st.Batches)
	}

	// A mature stationary window: high overlap, low score, no drift.
	observeBatches(t, s, wl, r, 4, 32, kpb)
	st, err = det.Check()
	if err != nil {
		t.Fatal(err)
	}
	if st.Batches != 32 {
		t.Fatalf("window %d batches, want 32", st.Batches)
	}
	if st.Drifted {
		t.Fatalf("stationary stream declared drift: score %g (overlap %g, rank dist %g)",
			st.Score, st.TopKOverlap, st.RankDistance)
	}
	if st.TopKOverlap < 0.7 {
		t.Fatalf("stationary top-K overlap %g below 0.7", st.TopKOverlap)
	}
	if got := max(1-st.TopKOverlap, st.RankDistance); st.Score != got {
		t.Fatalf("score %g, want max(1-overlap, dist) = %g", st.Score, got)
	}

	// Flash crowd: a clean post-shift window must trip the trigger, with the
	// overlap collapsing (the rotated head shares no identity with the
	// reference head).
	s.Reset()
	observeBatches(t, s, wl, r, shift, shift+16, kpb)
	st, err = det.Check()
	if err != nil {
		t.Fatal(err)
	}
	if !st.Drifted {
		t.Fatalf("flash crowd not detected: score %g", st.Score)
	}
	if st.TopKOverlap > 0.3 {
		t.Fatalf("post-shift overlap %g above 0.3", st.TopKOverlap)
	}

	// Rebase onto the measured post-shift hotness (copied — the status
	// aliases the detector's scratch) and the post-shift stream is quiet.
	measured := append(workload.Hotness(nil), st.Measured...)
	if err := det.Rebase(measured); err != nil {
		t.Fatal(err)
	}
	s.Reset()
	observeBatches(t, s, wl, r, shift+16, shift+48, kpb)
	st, err = det.Check()
	if err != nil {
		t.Fatal(err)
	}
	if st.Drifted {
		t.Fatalf("post-shift stream drifted against rebased reference: score %g (overlap %g, dist %g)",
			st.Score, st.TopKOverlap, st.RankDistance)
	}
}

// TestDriftDetectorWindowSlide: a check whose window reached MaxBatches
// resets the sampler so the next window starts fresh; shorter windows keep
// accumulating.
func TestDriftDetectorWindowSlide(t *testing.T) {
	const n, kpb = 1024, 128
	wl, err := workload.NewFlashCrowd(n, 1.05, 1<<30, 0) // stationary: the crowd never comes
	if err != nil {
		t.Fatal(err)
	}
	s := NewHotnessSampler(n, 1)
	det, err := NewDriftDetector(s, wl.ExpectedHotness(0, kpb), DriftConfig{MinBatches: 4, MaxBatches: 8})
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(3)

	observeBatches(t, s, wl, r, 0, 6, kpb)
	st, err := det.Check()
	if err != nil {
		t.Fatal(err)
	}
	if st.Batches != 6 {
		t.Fatalf("window %d, want 6", st.Batches)
	}
	if got := s.Batches(); got != 6 {
		t.Fatalf("short window reset the sampler: %d batches left", got)
	}

	observeBatches(t, s, wl, r, 6, 10, kpb)
	st, err = det.Check()
	if err != nil {
		t.Fatal(err)
	}
	if st.Batches != 10 {
		t.Fatalf("window %d, want 10", st.Batches)
	}
	if got := s.Batches(); got != 0 {
		t.Fatalf("full window (>= MaxBatches 8) did not slide: %d batches left", got)
	}
}

// TestDriftConfigNormalize pins the defaulting rules, including the
// MaxBatches floor at MinBatches, and the derived head size.
func TestDriftConfigNormalize(t *testing.T) {
	c := DriftConfig{}.normalize()
	if c.Threshold != 0.3 || c.MinBatches != 16 || c.MaxBatches != 64 {
		t.Fatalf("defaults %+v", c)
	}
	if k := driftTopK(1024); k != 64 {
		t.Fatalf("head of 1024 entries is %d, want 1/16 = 64", k)
	}
	if k := driftTopK(100); k != 16 {
		t.Fatalf("small-space head %d, want the 16 floor", k)
	}
	if c := (DriftConfig{MinBatches: 10, MaxBatches: 3}).normalize(); c.MaxBatches != 10 {
		t.Fatalf("MaxBatches %d not raised to MinBatches", c.MaxBatches)
	}
}

// TestDriftDetectorValidation covers the constructor and Rebase shape checks.
func TestDriftDetectorValidation(t *testing.T) {
	if _, err := NewDriftDetector(nil, make(workload.Hotness, 4), DriftConfig{}); err == nil {
		t.Fatal("nil sampler accepted")
	}
	s := NewHotnessSampler(8, 1)
	if _, err := NewDriftDetector(s, make(workload.Hotness, 4), DriftConfig{}); err == nil {
		t.Fatal("reference/sampler size mismatch accepted")
	}
	det, err := NewDriftDetector(s, make(workload.Hotness, 8), DriftConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := det.Rebase(make(workload.Hotness, 4)); err == nil {
		t.Fatal("short rebase accepted")
	}
	if cfg := det.Config(); det.topK != 8 || cfg.MinBatches != 16 {
		t.Fatalf("head %d (want all 8 entries), normalized config %+v", det.topK, cfg)
	}
}
