package flight

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"reflect"
	"strconv"
	"testing"

	"ugache/internal/platform"
)

// batchLineKeys maps every Batch field to the key its flight-JSONL line
// carries it under. A field added to Batch must be added here and to
// appendJSON (TestBatchFieldsReachTheLine); latency_s and kind are derived.
// A per-tier array maps to a suffix: element t is carried under tier t's
// name (platform.Tier.String) with the suffix, so the line's tier keys hold
// the array to platform.Tier's order.
var batchLineKeys = map[string]string{
	"Seq": "seq", "GPU": "gpu", "UnixNanos": "unix_nanos", "Reason": "reason",
	"Requests": "requests", "RequestedKeys": "requested_keys", "UniqueKeys": "unique_keys",
	"PrefetchHits": "prefetch_hits", "StaleBatches": "stale_batches",
	"QueueDepth": "queue_depth", "ShedTotal": "shed_total",
	"SimSeconds": "sim_s", "QueueWaitSeconds": "queue_wait_s", "CoalesceSeconds": "coalesce_s",
	"ExtractSeconds": "extract_s", "GatherSeconds": "gather_s", "ReplySeconds": "reply_s",
	"TierBytes": "_bytes", "TierSeconds": "_s",
}

// parseLine decodes one rendered line, numbers kept as their text.
func parseLine(t *testing.T, line []byte) map[string]any {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.UseNumber()
	var obj map[string]any
	if err := dec.Decode(&obj); err != nil || dec.More() {
		t.Fatalf("line %q is not one JSON object: %v", line, err)
	}
	return obj
}

// checkBatchLine holds a batch line to the record it renders: every field
// under its key, integers exactly, finite floats exactly and non-finite
// ones as 0, and the derived latency_s likewise.
func checkBatchLine(t *testing.T, b *Batch, obj map[string]any) {
	t.Helper()
	float := func(key string, want float64) {
		t.Helper()
		if math.IsNaN(want) || math.IsInf(want, 0) {
			want = 0
		}
		n, ok := obj[key].(json.Number)
		got, err := strconv.ParseFloat(string(n), 64)
		if !ok || err != nil || got != want {
			t.Errorf("batch line %s = %v, want %v", key, obj[key], want)
		}
	}
	v := reflect.ValueOf(b).Elem()
	for i := 0; i < v.NumField(); i++ {
		name := v.Type().Field(i).Name
		key, ok := batchLineKeys[name]
		if !ok {
			t.Errorf("Batch.%s has no key on the batch line: append one to appendJSON and batchLineKeys", name)
			continue
		}
		switch f := v.Field(i); f.Kind() {
		case reflect.Float64:
			float(key, f.Float())
		case reflect.Array:
			for t := platform.Tier(0); t < platform.NumTiers; t++ {
				float(t.String()+key, f.Index(int(t)).Float())
			}
		case reflect.Int, reflect.Int64:
			if n, ok := obj[key].(json.Number); !ok || string(n) != strconv.FormatInt(f.Int(), 10) {
				t.Errorf("batch line %s = %v, want %d", key, obj[key], f.Int())
			}
		case reflect.Uint8:
			if want := b.Reason.String(); obj[key] != want {
				t.Errorf("batch line %s = %v, want %q", key, obj[key], want)
			}
		}
	}
	float("latency_s", b.LatencySeconds())
	if obj["kind"] != "batch" {
		t.Errorf("batch line kind = %v", obj["kind"])
	}
}

// TestBatchFieldsReachTheLine: every field of a Batch has a key on its
// flight-JSONL line, with the field's value, so what the ring records is
// what /debug/flight and a bundle show.
func TestBatchFieldsReachTheLine(t *testing.T) {
	var b Batch
	v := reflect.ValueOf(&b).Elem()
	for i := 0; i < v.NumField(); i++ { // a value of its own in every field and element
		switch f := v.Field(i); f.Kind() {
		case reflect.Float64:
			f.SetFloat(float64(i) + 0.25)
		case reflect.Array:
			for e := 0; e < f.Len(); e++ {
				f.Index(e).SetFloat(float64(i) + float64(e+1)/8)
			}
		case reflect.Int, reflect.Int64:
			f.SetInt(int64(i) + 1)
		case reflect.Uint8:
			f.SetUint(uint64(FillIdle))
		}
	}
	checkBatchLine(t, &b, parseLine(t, b.appendJSON(nil)))
}

// FuzzFlightLines records an arbitrary batch and control event, NaN and ±Inf
// included, and holds every line Recorder.lines renders to valid JSON that
// reads back what was recorded: finite values exactly, non-finite ones as 0.
func FuzzFlightLines(f *testing.F) {
	words := func(ws ...uint64) []byte {
		var out []byte
		for _, w := range ws {
			out = binary.LittleEndian.AppendUint64(out, w)
		}
		return out
	}
	f.Add(words())
	f.Add(words(1, 2, 3, math.Float64bits(math.NaN()), 5, 6, 7, 2, math.Float64bits(math.Inf(1))))
	f.Add(words(math.MaxUint64, 1<<63, math.Float64bits(math.Inf(-1)), math.Float64bits(-0.0), 1e18, 3,
		math.Float64bits(1e308), math.Float64bits(1e308), math.Float64bits(5e-324), 2, 4))
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() uint64 { // the next eight bytes, zero past the end
			var w [8]byte
			data = data[copy(w[:], data):]
			return binary.LittleEndian.Uint64(w[:])
		}
		var b Batch
		v := reflect.ValueOf(&b).Elem()
		for i := 0; i < v.NumField(); i++ {
			switch fv := v.Field(i); fv.Kind() {
			case reflect.Float64:
				fv.SetFloat(math.Float64frombits(next()))
			case reflect.Array:
				for e := 0; e < fv.Len(); e++ {
					fv.Index(e).SetFloat(math.Float64frombits(next()))
				}
			case reflect.Int, reflect.Int64:
				fv.SetInt(int64(next()))
			case reflect.Uint8:
				fv.SetUint(next() & 0xff)
			}
		}
		b.GPU = int(int32(b.GPU)) // the ring keeps 32 bits of it
		e := Event{Kind: Kind(next()), GPU: int32(next()), Seq: int64(next()), UnixNanos: int64(next())}
		for i := range e.V {
			e.V[i] = math.Float64frombits(next())
		}

		rec := NewRecorder(1, 8)
		rec.Claim(1)[0].Record(&b) // numbers it: b.Seq = 1
		rec.RecordControl(&e)
		lines := rec.lines(nil)
		if len(lines) != 2 {
			t.Fatalf("%d lines for one batch and one event", len(lines))
		}
		for _, l := range lines {
			if !json.Valid(l) {
				t.Fatalf("line %q is not valid JSON", l)
			}
			obj := parseLine(t, l)
			if obj["kind"] == "batch" {
				checkBatchLine(t, &b, obj)
				continue
			}
			if obj["kind"] != e.Kind.String() {
				t.Errorf("event line kind = %v, want %q", obj["kind"], e.Kind.String())
			}
			for k, want := range map[string]int64{"gpu": int64(e.GPU), "seq": e.Seq, "unix_nanos": e.UnixNanos} {
				if n, ok := obj[k].(json.Number); !ok || string(n) != strconv.FormatInt(want, 10) {
					t.Errorf("event line %s = %v, want %d", k, obj[k], want)
				}
			}
			for i, name := range kindFields[e.Kind] {
				want := e.V[i]
				if math.IsNaN(want) || math.IsInf(want, 0) {
					want = 0
				}
				n, ok := obj[name].(json.Number)
				if got, err := strconv.ParseFloat(string(n), 64); !ok || err != nil || got != want {
					t.Errorf("event line %s = %v, want %v", name, obj[name], want)
				}
			}
		}
	})
}
