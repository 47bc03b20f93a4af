package flight

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"ugache/internal/platform"
)

// testBatch is a batch on gpu that completed at nanos after lat seconds, all
// of them spent waiting in the queue.
func testBatch(gpu int, lat float64, nanos int64) Batch {
	return Batch{GPU: gpu, UnixNanos: nanos, QueueWaitSeconds: lat, Requests: 3}
}

// skipTo writes zero filler batches until the next Record is numbered seq.
func skipTo(r *Ring, seq int64) {
	for int64(r.Recorded()) < seq-1 {
		b := Batch{}
		r.Record(&b)
	}
}

// randomBatch fills every field of a Batch, and every element of its
// per-tier arrays, with a random value of its kind, through reflection, so
// a field added to the struct but forgotten in store/load fails the round
// trip.
func randomBatch(rnd *rand.Rand) Batch {
	var b Batch
	v := reflect.ValueOf(&b).Elem()
	for i := 0; i < v.NumField(); i++ {
		switch f := v.Field(i); f.Kind() {
		case reflect.Int:
			f.SetInt(int64(rnd.Int31()) - 1<<30) // GPU is 32 bits in the ring, negatives included
		case reflect.Int64:
			f.SetInt(rnd.Int63() - 1<<62)
		case reflect.Float64:
			f.SetFloat(rnd.NormFloat64() * 1e3)
		case reflect.Array:
			for e := 0; e < f.Len(); e++ {
				f.Index(e).SetFloat(rnd.NormFloat64() * 1e3)
			}
		case reflect.Uint8:
			f.SetUint(uint64(rnd.Intn(3)))
		default:
			panic("Batch field " + v.Type().Field(i).Name + " is not a ring word kind")
		}
	}
	return b
}

func TestRingRoundTrip(t *testing.T) {
	r := newRing(16)
	if len(r.slots) != 16 {
		t.Fatalf("depth = %d, want 16", len(r.slots))
	}
	rnd := rand.New(rand.NewSource(1))
	var want []Batch
	for i := 0; i < 5; i++ {
		b := randomBatch(rnd)
		r.Record(&b)
		if b.Seq != int64(i+1) {
			t.Fatalf("record %d numbered %d", i, b.Seq)
		}
		want = append(want, b)
	}
	got := r.Snapshot(nil)
	if len(got) != 5 {
		t.Fatalf("snapshot holds %d batches, want 5", len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("batch %d read back\n %+v, wrote\n %+v", i, got[i], want[i])
		}
	}
	// GPU and Reason share a word; every other field, and every element of
	// an array field, has one of its own.
	typ, n := reflect.TypeOf(Batch{}), 0
	for i := 0; i < typ.NumField(); i++ {
		n++
		if f := typ.Field(i).Type; f.Kind() == reflect.Array {
			n += f.Len() - 1
		}
	}
	if n-1 != batchWords {
		t.Fatalf("Batch has %d field words for %d ring words", n, batchWords)
	}
}

func TestRingDepthRounding(t *testing.T) {
	for _, tc := range []struct{ ask, want int }{{0, 8}, {1, 8}, {9, 16}, {4096, 4096}, {5000, 8192}} {
		if got := len(newRing(tc.ask).slots); got != tc.want {
			t.Errorf("newRing(%d) holds %d, want %d", tc.ask, got, tc.want)
		}
	}
}

func TestRingOverwriteKeepsNewest(t *testing.T) {
	r := newRing(8)
	for i := 0; i < 20; i++ {
		b := testBatch(0, 0, int64(i))
		b.RequestedKeys, b.UniqueKeys = 2*i, i
		r.Record(&b)
	}
	got := r.Snapshot(nil)
	if len(got) != 8 {
		t.Fatalf("snapshot holds %d batches, want 8", len(got))
	}
	if b := got[0]; b.RequestedKeys != 2*b.UniqueKeys {
		t.Fatalf("oldest held batch %d requested keys for %d unique, want twice as many", b.RequestedKeys, b.UniqueKeys)
	}
	for i, b := range got {
		if want := int64(13 + i); b.Seq != want || b.UnixNanos != want-1 {
			t.Fatalf("slot %d = seq %d at %d, want seq %d (oldest first)", i, b.Seq, b.UnixNanos, want)
		}
	}
	if r.Recorded() != 20 {
		t.Fatalf("Recorded() = %d, want 20", r.Recorded())
	}
}

func TestRingNegativeGPURoundTrips(t *testing.T) {
	rec := NewRecorder(1, 8)
	e := Event{Kind: KindRefresh, GPU: -1, Seq: 7, UnixNanos: 1}
	e.V[refreshSteps] = 12
	rec.RecordControl(&e)
	got := rec.Events()
	if len(got) != 1 || got[0] != e {
		t.Fatalf("control event read back %+v, wrote %+v", got, e)
	}
}

// TestRingConcurrentSnapshot hammers one producer against concurrent
// readers; under -race this is the proof the seqlock slots are sound, and in
// any mode every surfaced batch must be internally consistent (never torn).
func TestRingConcurrentSnapshot(t *testing.T) {
	r := newRing(64)
	const writes = 20000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for reader := 0; reader < 3; reader++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf []Batch
			for {
				select {
				case <-stop:
					return
				default:
				}
				buf = r.Snapshot(buf[:0])
				for _, b := range buf {
					// The writer keeps the first and the last ring word, and
					// some in between, equal; a torn read would mix words
					// from different writes.
					if b.Seq != b.UnixNanos || b.Seq != int64(b.UniqueKeys) || float64(b.Seq) != b.TierSeconds[platform.TierNetwork] {
						t.Errorf("torn batch: %+v", b)
						return
					}
				}
			}
		}()
	}
	for i := 1; i <= writes; i++ {
		b := Batch{UnixNanos: int64(i), UniqueKeys: i}
		b.TierSeconds[platform.TierNetwork] = float64(i)
		r.Record(&b)
	}
	close(stop)
	wg.Wait()
}

func TestRecorderSnapshotMergesSorted(t *testing.T) {
	rec := NewRecorder(2, 8)
	if rec.Workers() != 2 {
		t.Fatalf("workers = %d", rec.Workers())
	}
	rings := rec.Claim(2)
	r0, r1 := rings[0], rings[1]
	if r0 == r1 || rec.Claim(1) != nil {
		t.Fatal("Claim must hand out each ring once, then nil")
	}
	b := testBatch(0, 0, 30)
	r0.Record(&b)
	b = testBatch(1, 0, 10)
	r1.Record(&b)
	ctrl := Event{Kind: KindRefresh, GPU: -1, Seq: 2, UnixNanos: 20}
	rec.RecordControl(&ctrl)
	got := rec.Trace().Snapshot(nil)
	if len(got) != 2 || got[0].GPU != 1 || got[1].GPU != 0 {
		t.Fatalf("merged snapshot not time-sorted: %+v", got)
	}
	if own := NewTrace([]*Ring{r1}).Snapshot(nil); len(own) != 1 || own[0].GPU != 1 {
		t.Fatalf("a view over one ring holds %+v", own)
	}
	if rec.Recorded() != 3 {
		t.Fatalf("Recorded() = %d, want 3", rec.Recorded())
	}
	if evs := rec.Events(); len(evs) != 1 || evs[0] != ctrl {
		t.Fatalf("control ring holds %+v, want the refresh alone", evs)
	}
}

func TestRecorderSlowestBatch(t *testing.T) {
	rec := NewRecorder(2, 8)
	rings := rec.Claim(2)
	for i, lat := range []float64{0.001, 0.050, 0.002} {
		b := testBatch(i%2, lat, int64(100+i))
		rings[i%2].Record(&b)
	}
	ex := rec.exemplar(nil)
	if ex == nil || ex.GPU != 1 || ex.Seq != 1 || ex.LatencySeconds != 0.050 {
		t.Fatalf("exemplar = %+v, want gpu 1 seq 1 at 50ms", ex)
	}
	// A mark taken before the slowest was recorded excludes it; the later,
	// faster one wins.
	if ex = rec.exemplar([]uint64{2, 0}); ex == nil || ex.GPU != 0 || ex.Seq != 2 {
		t.Fatalf("exemplar(mark) = %+v, want gpu 0 seq 2", ex)
	}
	if ex = rec.exemplar([]uint64{0, 0}); ex != nil {
		t.Fatalf("exemplar before any batch found %+v", ex)
	}
}

// TestFlightLinesParse: every rendered line, batch and control event alike,
// is one JSON object under its kind's keys.
func TestFlightLinesParse(t *testing.T) {
	rec := NewRecorder(1, 8)
	ring := rec.Claim(1)[0]
	skipTo(ring, 9)
	b := testBatch(0, 0.004, 1)
	ring.Record(&b)
	d := Event{Kind: KindDrift, GPU: -1, UnixNanos: 2}
	d.V[DriftScore] = 0.42
	d.V[DriftDrifted] = 1
	rec.RecordControl(&d)

	var buf bytes.Buffer
	if err := writeLines(&buf, rec.lines(nil)); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	var kinds []string
	for sc.Scan() {
		var obj map[string]any
		if err := json.Unmarshal(sc.Bytes(), &obj); err != nil {
			t.Fatalf("line %q does not parse: %v", sc.Text(), err)
		}
		if obj["unix_nanos"].(float64) == 0 {
			continue // filler
		}
		kinds = append(kinds, obj["kind"].(string))
		switch {
		case obj["kind"] == "batch":
			if obj["latency_s"].(float64) != 0.004 || obj["seq"].(float64) != 9 || obj["reason"] != "full" {
				t.Fatalf("batch line = %v", obj)
			}
		case obj["kind"] == "drift":
			if obj["score"].(float64) != 0.42 || obj["drifted"].(float64) != 1 {
				t.Fatalf("drift line = %v", obj)
			}
			if obj["gpu"].(float64) != -1 {
				t.Fatalf("drift gpu = %v, want -1", obj["gpu"])
			}
		}
	}
	if strings.Join(kinds, ",") != "batch,drift" {
		t.Fatalf("kinds = %v", kinds)
	}
}

// TestEventRingConcurrent: the control ring is shared by the refresh,
// drift, prefetch and partial-lookup writers while a bundle or an export
// reads it; under -race this is the proof the mutex ring is sound, and in any
// mode no write is lost and a snapshot never holds more than the ring's
// depth.
func TestEventRingConcurrent(t *testing.T) {
	const writers, writes = 4, 500
	rec := NewRecorder(1, 64)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < writes; i++ {
				rec.RecordControl(&Event{Kind: KindPartial, GPU: int32(w), UnixNanos: int64(i)})
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			if n := len(rec.Events()); n > 64 {
				t.Errorf("snapshot of %d events from a 64-deep ring", n)
				return
			}
			_ = rec.lines(rec.mark())
		}
	}()
	wg.Wait()
	if got := rec.Recorded(); got != writers*writes {
		t.Fatalf("ring recorded %d events, want %d", got, writers*writes)
	}
}

// TestLinesStopAtTheMark: a bundle's JSONL holds the control records taken
// before its mark, the ones its timeline was drawn from — none recorded
// after it.
func TestLinesStopAtTheMark(t *testing.T) {
	rec := NewRecorder(1, 8)
	rec.RecordControl(&Event{Kind: KindPartial, UnixNanos: 1})
	mark := rec.mark()
	rec.RecordControl(&Event{Kind: KindDrift, UnixNanos: 2})
	rec.RecordControl(&Event{Kind: KindPartial, UnixNanos: 3})
	if got := len(rec.lines(mark)); got != 1 {
		t.Fatalf("%d lines up to the mark, want the 1 recorded before it", got)
	}
	if got := len(rec.lines(nil)); got != 3 {
		t.Fatalf("%d lines without a mark, want all 3", got)
	}
}

// TestBatchViewKeysGolden pins the key set of a batch record's one JSON
// view, its flight-JSONL line, to the one it had as a KindBatch Event plus
// what has been appended since. Tools parse these: append keys, never
// rename or drop one.
func TestBatchViewKeysGolden(t *testing.T) {
	b := randomBatch(rand.New(rand.NewSource(2)))
	var obj map[string]any
	if err := json.Unmarshal(b.appendJSON(nil), &obj); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range obj {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	const jsonlKeys = "kind unix_nanos gpu seq latency_s requests unique_keys prefetch_hits " +
		"sim_s local_s remote_s host_s network_s" +
		// appended by the one-record change
		" requested_keys reason stale_batches queue_depth shed_total queue_wait_s coalesce_s extract_s gather_s reply_s" +
		// appended when the trace endpoint's JSON array folded into this line
		" local_bytes remote_bytes host_bytes network_bytes"
	if got, want := strings.Join(keys, " "), sortedWords(jsonlKeys); got != want {
		t.Errorf("flight JSONL batch keys\n got %s\nwant %s", got, want)
	}
}

func sortedWords(s string) string {
	w := strings.Fields(s)
	sort.Strings(w)
	return strings.Join(w, " ")
}

// TestRecordNoAlloc pins the zero-allocation contract of the recording path.
func TestRecordNoAlloc(t *testing.T) {
	rec := NewRecorder(1, 64)
	ring := rec.Claim(1)[0]
	b := testBatch(0, 0.001, 123)
	if n := testing.AllocsPerRun(1000, func() { ring.Record(&b) }); n != 0 {
		t.Fatalf("Record allocates %.1f per op, want 0", n)
	}
	e := Event{Kind: KindPrefetch, UnixNanos: 1}
	if n := testing.AllocsPerRun(1000, func() { rec.RecordControl(&e) }); n != 0 {
		t.Fatalf("RecordControl allocates %.1f per op, want 0", n)
	}
}
