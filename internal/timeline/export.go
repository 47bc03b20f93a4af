package timeline

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
)

// WriteTrace renders the events the sources draw as a Chrome trace-event
// JSON object ({"traceEvents": [...]}) loadable in Perfetto and
// chrome://tracing. Timestamps and durations are exported in microseconds
// (the trace-event unit). Output is deterministic for identical drawn
// events: events are sorted (see Events), track-name metadata is sorted by
// pid/tid, and floats use shortest-round-trip formatting.
func (r *Recorder) WriteTrace(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"); err != nil {
		return err
	}
	first := true
	emit := func(line []byte) error {
		if !first {
			if _, err := bw.WriteString(",\n"); err != nil {
				return err
			}
		}
		first = false
		_, err := bw.Write(line)
		return err
	}

	// Track-name metadata first, in (pid, tid) order.
	r.mu.Lock()
	procIDs := make([]int32, 0, len(r.procs))
	for pid := range r.procs {
		procIDs = append(procIDs, pid)
	}
	threadKeys := make([]int64, 0, len(r.threads))
	for k := range r.threads {
		threadKeys = append(threadKeys, k)
	}
	procs := make(map[int32]string, len(r.procs))
	for k, v := range r.procs {
		procs[k] = v
	}
	threads := make(map[int64]string, len(r.threads))
	for k, v := range r.threads {
		threads[k] = v
	}
	r.mu.Unlock()
	sort.Slice(procIDs, func(i, j int) bool { return procIDs[i] < procIDs[j] })
	sort.Slice(threadKeys, func(i, j int) bool { return threadKeys[i] < threadKeys[j] })
	for _, pid := range procIDs {
		line := fmt.Sprintf(`{"ph":"M","pid":%d,"tid":0,"name":"process_name","args":{"name":%s}}`,
			pid, quote(procs[pid]))
		if err := emit([]byte(line)); err != nil {
			return err
		}
	}
	for _, k := range threadKeys {
		pid, tid := int32(k>>32), int32(uint32(k))
		line := fmt.Sprintf(`{"ph":"M","pid":%d,"tid":%d,"name":"thread_name","args":{"name":%s}}`,
			pid, tid, quote(threads[k]))
		if err := emit([]byte(line)); err != nil {
			return err
		}
	}

	var buf []byte
	for _, ev := range r.Events() {
		buf = appendEvent(buf[:0], &ev)
		if err := emit(buf); err != nil {
			return err
		}
	}
	if _, err := bw.WriteString("\n]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}

// appendEvent renders one event as a single-line JSON object.
func appendEvent(buf []byte, ev *Event) []byte {
	buf = append(buf, `{"ph":"`...)
	buf = append(buf, byte(ev.Ph))
	buf = append(buf, `","pid":`...)
	buf = strconv.AppendInt(buf, int64(ev.PID), 10)
	buf = append(buf, `,"tid":`...)
	buf = strconv.AppendInt(buf, int64(ev.TID), 10)
	buf = append(buf, `,"name":`...)
	buf = append(buf, quote(ev.Name)...)
	if ev.Cat != "" {
		buf = append(buf, `,"cat":`...)
		buf = append(buf, quote(ev.Cat)...)
	}
	buf = append(buf, `,"ts":`...)
	buf = appendMicros(buf, ev.Start)
	if ev.Ph == PhSpan {
		buf = append(buf, `,"dur":`...)
		buf = appendMicros(buf, ev.Dur)
	}
	if ev.Ph == PhInstant {
		buf = append(buf, `,"s":"t"`...)
	}
	if ev.NArgs > 0 {
		buf = append(buf, `,"args":{`...)
		for i := int32(0); i < ev.NArgs; i++ {
			if i > 0 {
				buf = append(buf, ',')
			}
			buf = append(buf, quote(ev.Args[i].Key)...)
			buf = append(buf, ':')
			buf = strconv.AppendFloat(buf, ev.Args[i].Val, 'g', -1, 64)
		}
		buf = append(buf, '}')
	}
	buf = append(buf, '}')
	return buf
}

// appendMicros renders seconds as microseconds with fixed sub-microsecond
// precision (three decimals), which keeps the output deterministic and
// readable while preserving nanosecond resolution.
func appendMicros(buf []byte, seconds float64) []byte {
	return strconv.AppendFloat(buf, seconds*1e6, 'f', 3, 64)
}

func quote(s string) string {
	b, _ := json.Marshal(s)
	return string(b)
}

// ValidationReport summarizes a validated Chrome trace file.
type ValidationReport struct {
	Events int
	// ByPhase counts events per trace-event phase character.
	ByPhase map[string]int
	// ByPID counts events per process ID.
	ByPID map[int64]int
	// Names counts events per (process ID, name): the serve and the
	// prefetch tracks each have an "extract".
	Names map[ProcName]int
	// Trace is the decoded events, in file order.
	Trace []TraceEvent
}

// TraceEvent is one decoded event of a validated trace.
type TraceEvent struct {
	Ph, Name string
	PID, TID int64
	// TS and Dur are in microseconds, 0 where the event has none.
	TS, Dur float64
	// Args values are numeric on span events but strings on metadata events
	// (process and thread names), so they stay raw until read.
	Args map[string]json.RawMessage
}

// NumArg returns a numeric arg value; a non-numeric or absent arg reports
// false.
func (ev *TraceEvent) NumArg(key string) (float64, bool) {
	raw, ok := ev.Args[key]
	var v float64
	if !ok || json.Unmarshal(raw, &v) != nil {
		return 0, false
	}
	return v, true
}

// ProcName is one event name on one process.
type ProcName struct {
	PID  int64
	Name string
}

// Validate parses a Chrome trace-event JSON stream (object form) and checks
// the invariants the exporter guarantees: the top level holds a traceEvents
// array, every event carries ph/pid/tid/name, timestamps and durations are
// non-negative, and pids stay within the fixed taxonomy plus metadata.
// Shared by the golden tests and `ugache-trace -check-timeline`.
func Validate(r io.Reader) (*ValidationReport, error) {
	var doc struct {
		TraceEvents []map[string]json.RawMessage `json:"traceEvents"`
	}
	dec := json.NewDecoder(r)
	if err := dec.Decode(&doc); err != nil {
		return nil, fmt.Errorf("timeline: trace does not parse: %w", err)
	}
	if doc.TraceEvents == nil {
		return nil, fmt.Errorf("timeline: trace has no traceEvents array")
	}
	rep := &ValidationReport{
		ByPhase: make(map[string]int),
		ByPID:   make(map[int64]int),
		Names:   make(map[ProcName]int),
	}
	for i, ev := range doc.TraceEvents {
		var te TraceEvent
		if err := unmarshalField(ev, "ph", &te.Ph); err != nil {
			return nil, fmt.Errorf("timeline: event %d: %v", i, err)
		}
		if err := unmarshalField(ev, "name", &te.Name); err != nil {
			return nil, fmt.Errorf("timeline: event %d: %v", i, err)
		}
		name := te.Name
		if err := unmarshalField(ev, "pid", &te.PID); err != nil {
			return nil, fmt.Errorf("timeline: event %d (%s): %v", i, name, err)
		}
		if err := unmarshalField(ev, "tid", &te.TID); err != nil {
			return nil, fmt.Errorf("timeline: event %d (%s): %v", i, name, err)
		}
		if te.Ph != "M" {
			if err := unmarshalField(ev, "ts", &te.TS); err != nil {
				return nil, fmt.Errorf("timeline: event %d (%s): %v", i, name, err)
			}
			if te.TS < 0 {
				return nil, fmt.Errorf("timeline: event %d (%s): negative ts %g", i, name, te.TS)
			}
		}
		if raw, ok := ev["dur"]; ok {
			if err := json.Unmarshal(raw, &te.Dur); err != nil {
				return nil, fmt.Errorf("timeline: event %d (%s): bad dur: %v", i, name, err)
			}
			if te.Dur < 0 {
				return nil, fmt.Errorf("timeline: event %d (%s): negative dur %g", i, name, te.Dur)
			}
		}
		if raw, ok := ev["args"]; ok {
			if err := json.Unmarshal(raw, &te.Args); err != nil {
				return nil, fmt.Errorf("timeline: event %d (%s): bad args: %v", i, name, err)
			}
		}
		rep.Events++
		rep.ByPhase[te.Ph]++
		rep.ByPID[te.PID]++
		rep.Names[ProcName{te.PID, name}]++
		rep.Trace = append(rep.Trace, te)
	}
	return rep, nil
}

func unmarshalField(ev map[string]json.RawMessage, key string, dst interface{}) error {
	raw, ok := ev[key]
	if !ok {
		return fmt.Errorf("missing %q", key)
	}
	if err := json.Unmarshal(raw, dst); err != nil {
		return fmt.Errorf("bad %q: %v", key, err)
	}
	return nil
}
