package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed interval recorded by the harness around a call into a
// layer. Start and End are offsets from the run's epoch; Parent is the span
// that caused this one (0 for a root); spans of one request share Req.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent,omitempty"`
	Name   string        `json:"name"`
	Req    int64         `json:"req"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// spanLog is one goroutine's in-memory span buffer. Each goroutine that
// records owns its own log; base keeps IDs distinct across logs, and the
// logs are concatenated when the run ends.
type spanLog struct {
	base  int
	spans []span
}

// newSpanLog returns the log of recording goroutine shard.
func newSpanLog(shard int) *spanLog { return &spanLog{base: shard << 24} }

// add records one completed span and returns its ID for use as a parent.
func (l *spanLog) add(name string, parent int, req int64, start, end time.Duration) int {
	id := l.base + len(l.spans) + 1
	l.spans = append(l.spans, span{ID: id, Parent: parent, Name: name, Req: req, Start: start, End: end})
	return id
}

// setEnd closes a span of this log that was added while still open.
func (l *spanLog) setEnd(id int, end time.Duration) { l.spans[id-l.base-1].End = end }

// selfTimes returns, per span ID, the span's duration minus the part of its
// interval that its child spans cover. Children are clipped to the parent's
// interval and overlapping children are counted once.
func selfTimes(spans []span) map[int]time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := time.Duration(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = max(s.End-s.Start-covered, 0)
	}
	return self
}

// ledgerRow is one layer's line in the per-workload ledger: how many spans
// of that name were recorded, their median self time, and that self time as
// a share of the end-to-end median it is part of — the operation's latency
// (p50_ms) on the data path, refresh_s for the spans of a refresh.
type ledgerRow struct {
	Span    string  `json:"span"`
	Count   int     `json:"count"`
	SelfUs  float64 `json:"self_us_per_op"`
	ShareOf string  `json:"share_of"`
	Share   float64 `json:"share"`
}

// buildLedger groups spans by name, in order of first appearance. base
// names, per span name, the end-to-end metric the share is taken of and its
// value in milliseconds.
func buildLedger(spans []span, base func(name string) (metric string, ms float64)) []ledgerRow {
	self := selfTimes(spans)
	var names []string
	byName := make(map[string][]float64)
	for _, s := range spans {
		if _, ok := byName[s.Name]; !ok {
			names = append(names, s.Name)
		}
		byName[s.Name] = append(byName[s.Name], float64(self[s.ID])/float64(time.Microsecond))
	}
	rows := make([]ledgerRow, len(names))
	for i, name := range names {
		us := median(byName[name])
		metric, ms := base(name)
		rows[i] = ledgerRow{Span: name, Count: len(byName[name]), SelfUs: us, ShareOf: metric, Share: ratio(us, ms*1e3)}
	}
	return rows
}

func writeSpans(path string, spans []span) error {
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
