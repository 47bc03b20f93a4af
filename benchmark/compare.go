package main

import (
	"fmt"
	"io"
	"math"
)

// verdict is how one (metric, workload) pair came out of a comparison.
type verdict string

const (
	pass       verdict = "PASS"
	regression verdict = "REGRESSION"
	// unresolved: the candidate is past the bound, but by no more than one
	// of the two runs moved between its own windows, so the pair decides
	// nothing; or the measurement marked itself invalid.
	unresolved verdict = "UNRESOLVED"
)

// worsening returns by how much cand is worse than base: as a share of base
// for relative and exact metrics, in the metric's unit for absolute ones.
// Negative means better.
func worsening(def *metricDef, base, cand float64) float64 {
	d := cand - base
	if def.Better == "higher" {
		d = -d
	}
	if def.Kind == absBound {
		return d
	}
	if base == 0 {
		if d == 0 {
			return 0
		}
		return math.Inf(int(math.Copysign(1, d)))
	}
	return d / math.Abs(base)
}

// judge applies the catalogue's bound to one pair of values. sameSeed says
// the two runs had equal seeds, which is when exact metrics must repeat.
func judge(def *metricDef, workload string, base, cand *metricValue, sameSeed bool) (float64, verdict) {
	worse := worsening(def, base.Value, cand.Value)
	if def.exactOn(workload) && sameSeed {
		if base.Value != cand.Value {
			return worse, regression
		}
		return worse, pass
	}
	if def.Kind == exact || worse <= def.Bound {
		return worse, pass
	}
	// Past the bound. That decides nothing only while the worsening is no
	// larger than what one of the two runs moved between its own windows;
	// anything larger is a regression however far the windows spread.
	if worse <= max(base.noise(def), cand.noise(def)) {
		return worse, unresolved
	}
	return worse, regression
}

// noise is how far apart the windows behind m lie, in the terms worsening
// reports: max over min, minus one, or max minus min for an absolute bound.
func (m *metricValue) noise(def *metricDef) float64 {
	switch {
	case m.Min == nil:
		return 0
	case def.Kind == absBound:
		return *m.Max - *m.Min
	case *m.Min <= 0:
		return math.Inf(1)
	}
	return *m.Max / *m.Min - 1
}

// compareReports prints, per end-to-end metric and workload, how the
// candidate report differs from the baseline, the bound, and the verdict.
// It reports whether anything regressed. Reports of different measured
// lengths are refused: the windows, the warm-up and refresh-drift's refresh
// period all scale with the length, so they are different workloads.
func compareReports(w io.Writer, basePath, candPath string) (regressed bool, err error) {
	var base, cand fullReport
	if err := readJSON(basePath, &base); err != nil {
		return false, err
	}
	if err := readJSON(candPath, &cand); err != nil {
		return false, err
	}
	if base.Seconds != cand.Seconds {
		return false, fmt.Errorf("%s measured %g s per workload and %s %g s; compare runs of equal length", basePath, base.Seconds, candPath, cand.Seconds)
	}
	sameSeed := base.Seed == cand.Seed
	fmt.Fprintf(w, "%-24s %-26s %14s %14s %9s %8s  %s\n", "workload", "metric", "baseline", "candidate", "worse by", "bound", "verdict")
	row := func(label string, def *metricDef, bw, cw *workloadReport) {
		b, c := bw.metric(def.Name), cw.metric(def.Name)
		if b == nil {
			return
		}
		if c == nil {
			fmt.Fprintf(w, "%-24s %-26s %14.6g %14s %9s %8s  %s\n", label, def.Name, b.Value, "missing", "", "", regression)
			regressed = true
			return
		}
		worse, v := judge(def, bw.Workload, b, c, sameSeed)
		bound := fmt.Sprintf("%g", def.Bound)
		switch {
		case def.exactOn(bw.Workload) && sameSeed:
			bound = "exact"
		case def.Kind == absBound:
			bound += " abs"
		}
		// A run that marked itself invalid (late generator, too few
		// processors) cannot vouch for a wall-clock figure.
		if v == pass && def.Clock == "wall" && !(bw.Valid && cw.Valid) {
			v = unresolved
		}
		fmt.Fprintf(w, "%-24s %-26s %14.6g %14.6g %+9.4f %8s  %s\n", label, def.Name, b.Value, c.Value, worse, bound, v)
		regressed = regressed || v == regression
	}
	find := func(rs []*workloadReport, workload string) *workloadReport {
		for _, r := range rs {
			if r.Workload == workload {
				return r
			}
		}
		return nil
	}
	health := func(path string, r *workloadReport) {
		if !r.Correct {
			fmt.Fprintf(w, "%-24s INCORRECT in %s: %v\n", r.Workload, path, r.Problems)
			regressed = true
		}
		if !r.Valid {
			fmt.Fprintf(w, "%-24s INVALID in %s: %v\n", r.Workload, path, r.Invalid)
		}
	}
	for _, bw := range base.Workloads {
		cw := find(cand.Workloads, bw.Workload)
		if cw == nil {
			fmt.Fprintf(w, "%-24s missing from %s\n", bw.Workload, candPath)
			regressed = true
			continue
		}
		health(basePath, bw)
		health(candPath, cw)
		for i := range catalogue {
			if def := &catalogue[i]; def.Kind != noBound {
				row(bw.Workload, def, bw, cw)
			}
		}
	}
	// The traced runs carry the per-layer counts that must repeat exactly.
	for _, bw := range base.Traced {
		cw := find(cand.Traced, bw.Workload)
		if cw == nil {
			continue
		}
		for i := range catalogue {
			if def := &catalogue[i]; !def.EndToEnd && def.Kind == exact {
				row(bw.Workload+" (traced)", def, bw, cw)
			}
		}
	}
	return regressed, nil
}
