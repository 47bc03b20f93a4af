package core

import (
	"ugache/internal/cache"
	"ugache/internal/extract"
)

// Scratch bundles the reusable buffers of the per-iteration hot path — the
// extractor's planning/simulation scratch and the functional gather's
// grouping/probe scratch — so a serving worker can run ExtractBatch and
// Lookup back to back without allocating (§3.2's software overhead
// sits on the critical path of every iteration).
//
// A Scratch is owned by one goroutine at a time: give each worker its own,
// or recycle through a sync.Pool. Results returned from scratch-backed
// calls alias the scratch and are valid only until its next use; see
// extract.Scratch for the exact aliasing contract.
type Scratch struct {
	extract *extract.Scratch
	gather  *cache.GatherScratch
}

// NewScratch returns an empty Scratch; buffers grow on first use and are
// retained across calls.
func NewScratch() *Scratch {
	return &Scratch{extract: extract.NewScratch(), gather: cache.NewGatherScratch()}
}

// ExtractBatch simulates one iteration's extraction with the configured
// mechanism. The returned Result aliases sc's buffers and is valid only
// until its next use; a nil sc means a fresh one of the call's own
// (extract.Extractor.Run), so the Result is the caller's to keep. Another
// mechanism (a baseline comparison) runs on the extractor itself,
// sys.Extractor().Run(m, b, nil), and stays out of the serving counters.
func (s *System) ExtractBatch(b *extract.Batch, sc *Scratch) (*extract.Result, error) {
	var esc *extract.Scratch
	if sc != nil {
		esc = sc.extract
	}
	res, err := s.Extractor().Run(s.Mechanism, b, esc)
	if err == nil {
		s.observeExtract(res)
	}
	return res, err
}

// Lookup functionally gathers rows for GPU dst into out; requires a Source.
// sc holds the gather's grouping and probe buffers; out is caller-owned
// either way, and a nil sc falls back to the cache layer's internal pool.
func (s *System) Lookup(dst int, keys []int64, out []byte, sc *Scratch) error {
	var gsc *cache.GatherScratch
	if sc != nil {
		gsc = sc.gather
	}
	return s.Cache.Gather(dst, keys, out, gsc)
}

// ExtractBatchWith runs as ExtractBatch does. It goes once benchmark/ stops
// calling it.
func (s *System) ExtractBatchWith(b *extract.Batch, sc *Scratch) (*extract.Result, error) {
	return s.ExtractBatch(b, sc)
}

// LookupWith runs as Lookup does. It goes once benchmark/ stops calling it.
func (s *System) LookupWith(dst int, keys []int64, out []byte, sc *Scratch) error {
	return s.Lookup(dst, keys, out, sc)
}
