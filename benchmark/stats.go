package main

import (
	"math"

	"ugache/internal/stats"
)

// median returns the middle value of xs (mean of the two middle values for
// an even count), or 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	return stats.Quantiles(append([]float64(nil), xs...), 0.5)[0]
}

// percentile returns the nearest-rank q-quantile of an ascending-sorted
// sample together with how many samples lie beyond it, so a reader can tell
// whether the tail behind the number is ten samples deep or one.
func percentile(sorted []float64, q float64) (value float64, beyond int) {
	if len(sorted) == 0 {
		return 0, 0
	}
	rank := int(math.Ceil(q*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank], len(sorted) - 1 - rank
}

// windowed is one statistic taken in each measurement window: the reported
// value is the median across windows, with the extremes kept beside it.
type windowed struct {
	Median, Min, Max float64
}

func acrossWindows(perWindow []float64) windowed {
	if len(perWindow) == 0 {
		return windowed{}
	}
	w := windowed{Median: median(perWindow), Min: perWindow[0], Max: perWindow[0]}
	for _, v := range perWindow {
		w.Min = math.Min(w.Min, v)
		w.Max = math.Max(w.Max, v)
	}
	return w
}

// spread is max/min across windows (harness.window_spread); 1 means the
// windows agree exactly, 0 that there is nothing to compare.
func (w windowed) spread() float64 {
	if w.Min <= 0 {
		return 0
	}
	return w.Max / w.Min
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
