package workload

import (
	"math"
	"testing"

	"ugache/internal/rng"
)

// zipfTables is a synthetic key space with known truth: concatenated Zipf
// tables of very different sizes (rank order within a table, as DLRSpec
// builds them), `draws` keys drawn from every table per batch, and each
// entry's true presence rate 1-(1-p)^draws.
type zipfTables struct {
	offsets []int64 // table t covers [offsets[t], offsets[t+1])
	zipfs   []*Zipf
	draws   int
	truth   Hotness
}

func newZipfTables(t testing.TB, sizes []int64, draws int) *zipfTables {
	t.Helper()
	z := &zipfTables{offsets: []int64{0}, draws: draws}
	for _, n := range sizes {
		zf, err := NewZipf(n, 1.2)
		if err != nil {
			t.Fatal(err)
		}
		z.zipfs = append(z.zipfs, zf)
		z.offsets = append(z.offsets, z.offsets[len(z.offsets)-1]+n)
	}
	z.truth = make(Hotness, z.offsets[len(sizes)])
	for ti, zf := range z.zipfs {
		for k := int64(0); k < zf.N; k++ {
			p := zf.CDF(k+1) - zf.CDF(k)
			z.truth[z.offsets[ti]+k] = 1 - math.Pow(1-p, float64(draws))
		}
	}
	return z
}

// batch draws one batch: `draws` keys from every table, renamed if asked.
func (z *zipfTables) batch(r *rng.Rand, rename []int64) []int64 {
	var b []int64
	for ti, zf := range z.zipfs {
		for d := 0; d < z.draws; d++ {
			k := z.offsets[ti] + zf.Sample(r)
			if rename != nil {
				k = rename[k]
			}
			b = append(b, k)
		}
	}
	return b
}

// record draws `batches` batches and returns each key's presence count and
// true rate; rename, when non-nil, is the permutation the keys go through
// before anything sees them.
func (z *zipfTables) record(t testing.TB, r *rng.Rand, batches int, rename []int64) ([]uint32, Hotness) {
	t.Helper()
	truth := z.truth
	if rename != nil {
		truth = make(Hotness, len(z.truth))
		for k, to := range rename {
			truth[to] = z.truth[k]
		}
	}
	rec := make([][]int64, batches)
	for i := range rec {
		rec[i] = z.batch(r, rename)
	}
	counts, err := countPresence(int64(len(truth)), rec)
	if err != nil {
		t.Fatal(err)
	}
	return counts, truth
}

// shuffled returns the identity permutation of the keys below the last cut with every range
// [cuts[i], cuts[i+1]) shuffled in itself.
func shuffled(r *rng.Rand, cuts []int64) []int64 {
	perm := make([]int64, cuts[len(cuts)-1])
	for i := range perm {
		perm[i] = int64(i)
	}
	for c := 0; c+1 < len(cuts); c++ {
		lo, hi := cuts[c], cuts[c+1]
		for i := hi - 1; i > lo; i-- {
			j := lo + int64(r.Intn(int(i-lo+1)))
			perm[i], perm[j] = perm[j], perm[i]
		}
	}
	return perm
}

// rawPresence is the estimator ProfileBatches had before EstimatePresence,
// kept as the reference the tests measure against: count/batches for every
// entry seen, and one global Good–Turing tail N1/(batches·N0) for the rest.
func rawPresence(counts []uint32, batches int) Hotness {
	var once, unseen float64
	for _, c := range counts {
		switch c {
		case 0:
			unseen++
		case 1:
			once++
		}
	}
	tail := 0.0
	if unseen > 0 {
		tail = once / unseen / float64(batches)
	}
	h := make(Hotness, len(counts))
	for i, c := range counts {
		h[i] = float64(c) / float64(batches)
		if c == 0 {
			h[i] = tail
		}
	}
	return h
}

func estimate(counts []uint32, batches int) Hotness {
	h := make(Hotness, len(counts))
	EstimatePresence(h, counts, batches)
	return h
}

// levelErrors returns, for the entries seen r times, how far the level's mean
// estimate is from its mean true rate (what a planner summing hotness over
// the level gets wrong), the mean per-entry absolute error, and the mean true
// rate itself.
func levelErrors(est, truth Hotness, counts []uint32, r uint32) (ofMean, perEntry, rate float64) {
	var n, sum, abs float64
	for i, c := range counts {
		if c == r {
			n++
			sum += est[i] - truth[i]
			abs += math.Abs(est[i] - truth[i])
			rate += truth[i]
		}
	}
	return math.Abs(sum) / n, abs / n, rate / n
}

// TestPresenceLevelsAgainstTruth measures the adjusted counts against known
// rates, level by level, next to the raw estimator. For r = 1..4 the level's
// mean is at least twice as close to the truth as r/batches is (a level's
// entries spread around their mean by more than any per-level constant can
// fix, so the mean is what an adjusted count can get right). The raw tail at
// r = 0 is Good–Turing's own N1/N0 and already right on average; what it
// gets wrong is where the mass sits, so levels 0 and 1 — the local ones — are
// also held to half the raw per-entry error. And on inputs from a few
// thousand entries up, the levels the density rule lets be adjusted come out
// within 12% of their true mean on average and closer than the raw counts do
// (which are off by 70-110% of the rate on a power-law tail and by 10% on a
// small table's flat one): that is what denseScale is set for. One level of
// one recording can be 30% off — the rule admits a sampling error of
// 0.35/(r+1) at the sparsest level it calls dense — so the bound is on the
// average.
func TestPresenceLevelsAgainstTruth(t *testing.T) {
	const batches = 64
	z := newZipfTables(t, []int64{240_000, 60_000, 16_000, 4_000, 1_000}, 1024)
	counts, truth := z.record(t, rng.New(3), batches, nil)
	est, raw := estimate(counts, batches), rawPresence(counts, batches)
	for r := uint32(0); r <= 4; r++ {
		estMean, estEntry, _ := levelErrors(est, truth, counts, r)
		rawMean, rawEntry, _ := levelErrors(raw, truth, counts, r)
		t.Logf("r=%d: error of the level mean %.5f (raw %.5f), per entry %.5f (raw %.5f)", r, estMean, rawMean, estEntry, rawEntry)
		if r >= 1 && estMean > rawMean/2 {
			t.Errorf("r=%d: level mean off by %g, raw by %g: not halved", r, estMean, rawMean)
		}
		if r <= 1 && estEntry > rawEntry/2 {
			t.Errorf("r=%d: per-entry error %g, raw %g: not halved", r, estEntry, rawEntry)
		}
	}
	// Level 0's mean must not pay for its per-entry gain: within a tenth of
	// the truth (the raw tail is within a hundredth).
	var sumEst, sumTrue float64
	for i, c := range counts {
		if c == 0 {
			sumEst += est[i]
			sumTrue += truth[i]
		}
	}
	if math.Abs(sumEst-sumTrue) > 0.1*sumTrue {
		t.Errorf("never-seen mass %g, truth %g", sumEst, sumTrue)
	}

	// The density rule.
	for _, sizes := range [][]int64{{3_000, 800}, {20_000, 5_000, 500}, {120_000, 30_000, 8_000}, {240_000, 60_000, 16_000, 4_000, 1_000}} {
		var adjusted, estOff, rawOff float64
		for seed := uint64(1); seed <= 5; seed++ {
			z := newZipfTables(t, sizes, 256)
			counts, truth := z.record(t, rng.New(seed), batches, nil)
			est, raw := estimate(counts, batches), rawPresence(counts, batches)
			for r := uint32(1); r <= presenceLevels; r++ {
				i := 0
				for i < len(counts) && counts[i] != r {
					i++
				}
				if i == len(counts) || est[i] == raw[i] {
					break // adjusted or not, one entry speaks for its level
				}
				off, _, rate := levelErrors(est, truth, counts, r)
				estOff += off / rate
				off, _, _ = levelErrors(raw, truth, counts, r)
				rawOff += off / rate
				adjusted++
			}
		}
		t.Logf("sizes %v: %.0f adjusted levels over 5 seeds, off by %.3f of the true rate on average, raw by %.3f", sizes, adjusted, estOff/adjusted, rawOff/adjusted)
		if adjusted < 10 || estOff > 0.12*adjusted || estOff > rawOff {
			t.Errorf("sizes %v: %.0f adjusted levels off by %g of the true rate on average, raw by %g", sizes, adjusted, estOff/adjusted, rawOff/adjusted)
		}
	}
}

// TestPresenceLocalTailAgainstTruth measures the bucketed never-seen estimate
// against the one global tail it replaces, as mean absolute error over the
// never-seen entries: at most half on concatenated tables, still ahead when
// only the table structure is left (keys shuffled within each table), and no
// more than 5% behind on a fully hashed key space, where a bucket can know
// nothing the whole does not. The bucket width is the derived one throughout;
// this is the trade bucketOnce is set on — smaller buckets are noisier on
// hashed keys, larger ones blur the tables.
func TestPresenceLocalTailAgainstTruth(t *testing.T) {
	const batches = 64
	z := newZipfTables(t, []int64{240_000, 60_000, 16_000, 4_000, 1_000}, 1024)
	n := int64(len(z.truth))
	for _, c := range []struct {
		name   string
		rename []int64
		bound  float64
	}{
		{"concatenated tables", nil, 0.5},
		{"shuffled within tables", shuffled(rng.New(11), z.offsets), 0.9},
		{"hashed", shuffled(rng.New(12), []int64{0, n}), 1.05},
	} {
		counts, truth := z.record(t, rng.New(5), batches, c.rename)
		if bucketWidth(len(counts), countOfCounts(counts)[1]) > len(counts)/100 {
			t.Fatalf("%s: the input is too small for more than a hundred buckets", c.name)
		}
		_, local, _ := levelErrors(estimate(counts, batches), truth, counts, 0)
		_, global, _ := levelErrors(rawPresence(counts, batches), truth, counts, 0)
		t.Logf("%s: never-seen error %.6f, one global tail %.6f (x%.3f)", c.name, local, global, local/global)
		if local > c.bound*global {
			t.Errorf("%s: never-seen error %g against the global tail's %g, want at most x%g", c.name, local, global, c.bound)
		}
	}
}

// TestHeldOutCoverage checks the estimate's self-check (ugache-trace
// -hotness): on batches of concatenated tables, what a profile of the first
// half predicts for its hottest entries is what the second half delivers to
// within two points (raw counts predict 35.0% for the hottest 1% here and
// get 39.8%).
func TestHeldOutCoverage(t *testing.T) {
	z := newZipfTables(t, []int64{60_000, 16_000, 4_000, 1_000}, 1024)
	r := rng.New(9)
	batches := make([][]int64, 64)
	for i := range batches {
		batches[i] = z.batch(r, nil)
	}
	n := int64(len(z.truth))
	fracs := []float64{0.001, 0.01, 0.1}
	predicted, delivered, err := HeldOutCoverage(n, batches, fracs)
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range fracs {
		t.Logf("hottest %.1f%%: predicted %.4f, delivered %.4f", f*100, predicted[i], delivered[i])
		if math.Abs(predicted[i]-delivered[i]) > 0.02 || delivered[i] <= 0 || i > 0 && delivered[i] <= delivered[i-1] {
			t.Errorf("hottest %.1f%% of entries: predicted %.4f of a batch, delivered %.4f", f*100, predicted[i], delivered[i])
		}
	}
	if _, _, err := HeldOutCoverage(n, batches[:1], fracs); err == nil {
		t.Fatal("one batch has no held-out half")
	}
}

// checkPresenceOrder checks what EstimatePresence promises of any input:
// finite values in [0, 1]; within a bucket, no estimate below that of a
// smaller count; and everywhere, nothing seen at most once above anything
// seen twice or more, and the levels from 2 up in order.
func checkPresenceOrder(t testing.TB, counts []uint32, batches int, h Hotness) {
	t.Helper()
	for i, v := range h {
		if math.IsNaN(v) || v < 0 || v > 1 {
			t.Fatalf("h[%d] = %v for count %d of %d batches", i, v, counts[i], batches)
		}
	}
	// ordered fails if the estimates, keyed by count, disagree or decrease.
	ordered := func(where string, byCount map[uint32]float64, c uint32, v float64) {
		if w, ok := byCount[c]; ok && w != v {
			t.Fatalf("%s: count %d -> %v and -> %v", where, c, w, v)
		}
		byCount[c] = v
		for d, w := range byCount {
			if d < c && w > v || d > c && w < v {
				t.Fatalf("%s: count %d -> %v but count %d -> %v", where, c, v, d, w)
			}
		}
	}
	width := bucketWidth(len(counts), countOfCounts(counts)[1])
	low := 0.0          // the largest estimate of an entry seen at most once
	high := math.Inf(1) // the smallest of one seen twice or more
	everywhere := map[uint32]float64{}
	for lo := 0; lo < len(counts); lo += width {
		bucket := map[uint32]float64{}
		for i := lo; i < min(lo+width, len(counts)); i++ {
			ordered("one bucket", bucket, counts[i], h[i])
			if counts[i] <= 1 {
				low = max(low, h[i])
			} else {
				high = min(high, h[i])
				ordered("everywhere", everywhere, counts[i], h[i])
			}
		}
	}
	if low > high {
		t.Fatalf("an entry seen at most once is at %v, one seen more often at %v", low, high)
	}
}

// blowUp is the input on which the unbounded tail outranked everything seen:
// 110 entries, two batches, keys 0..99 and keys 0..49. N1/N0 = 50/10, so the
// ten never-seen entries came out at 5/2 = 2.5 — above the fifty entries
// present in every batch (1.0), and the solver cached the never-seen rows
// first.
func blowUp() [][]int64 {
	batches := [][]int64{nil, nil}
	for k := int64(0); k < 100; k++ {
		batches[0] = append(batches[0], k)
		if k < 50 {
			batches[1] = append(batches[1], k)
		}
	}
	return batches
}

func TestPresenceTailNeverOutranksTheSeen(t *testing.T) {
	h, err := ProfileBatches(110, blowUp())
	if err != nil {
		t.Fatal(err)
	}
	if h[0] != 1 || h[99] != 0.5 {
		t.Fatalf("seen in both batches -> %v, in one -> %v: want the raw 1 and 0.5 on an input this small", h[0], h[99])
	}
	if h[109] > h[99] || h[109] <= 0 {
		t.Fatalf("never seen -> %v, seen once -> %v", h[109], h[99])
	}
	counts, err := countPresence(110, blowUp())
	if err != nil {
		t.Fatal(err)
	}
	checkPresenceOrder(t, counts, 2, h)
}

// FuzzEstimatePresence drives the estimator with arbitrary small count
// vectors and batch counts and checks the order it promises, that it is a
// function of its input, and that the input survives.
func FuzzEstimatePresence(f *testing.F) {
	seed := func(batches int, counts ...uint32) {
		raw := make([]byte, len(counts))
		for i, c := range counts {
			raw[i] = byte(c)
		}
		f.Add(byte(batches-1), raw)
	}
	rep := func(n int, c uint32) []uint32 {
		out := make([]uint32, n)
		for i := range out {
			out[i] = c
		}
		return out
	}
	seed(2, append(append(rep(50, 2), rep(50, 1)...), rep(10, 0)...)...) // the blow-up: a tail of 2.5
	seed(3, 1, 2, 3, 3, 1)                                               // all seen
	seed(5, rep(40, 0)...)                                               // none seen
	seed(1, 1)                                                           // one entry
	seed(1, 0)
	seed(4, rep(30, 4)...)                                                  // counts = batches
	seed(9, append(append(rep(100, 0), rep(100, 1)...), rep(100, 2)...)...) // level 1 dense: adjusted and local
	seed(9, append(append(append(rep(200, 1), rep(200, 2)...), rep(200, 3)...), rep(70, 0)...)...)
	f.Fuzz(func(t *testing.T, b byte, raw []byte) {
		batches := 1 + int(b)%40
		counts := make([]uint32, len(raw))
		for i, c := range raw {
			counts[i] = uint32(c) % uint32(batches+1)
		}
		before := append([]uint32(nil), counts...)
		h := estimate(counts, batches)
		for i := range counts {
			if counts[i] != before[i] {
				t.Fatalf("counts[%d] changed from %d to %d", i, before[i], counts[i])
			}
		}
		checkPresenceOrder(t, counts, batches, h)
		for i, v := range estimate(counts, batches) {
			if math.Float64bits(v) != math.Float64bits(h[i]) {
				t.Fatalf("h[%d] = %v, then %v from the same input", i, h[i], v)
			}
		}
	})
}
