// Package stats provides the small numeric and report-rendering helpers
// shared by the benchmark harness and the commands: exact sample quantiles,
// the geometric mean, and the fixed-width table/series rendering used to
// print the rows and series of the paper's tables and figures.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Quantiles computes exact quantiles of a sample (which it sorts in place).
func Quantiles(sample []float64, qs ...float64) []float64 {
	out := make([]float64, len(qs))
	if len(sample) == 0 {
		return out
	}
	sort.Float64s(sample)
	for i, q := range qs {
		pos := q * float64(len(sample)-1)
		lo := int(pos)
		hi := lo + 1
		if hi >= len(sample) {
			out[i] = sample[len(sample)-1]
			continue
		}
		frac := pos - float64(lo)
		out[i] = sample[lo]*(1-frac) + sample[hi]*frac
	}
	return out
}

// Table renders labelled rows of numbers with fixed-width columns; it is the
// uniform output format of the benchmark harness.
type Table struct {
	Title   string
	Headers []string
	rows    [][]string
}

// NewTable creates a table with a title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row of already-formatted cells.
func (t *Table) AddRow(cells ...string) {
	t.rows = append(t.rows, cells)
}

// String renders the table.
func (t *Table) String() string {
	width := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		width[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(width) && len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			if i < len(width) {
				fmt.Fprintf(&b, "%-*s", width[i], c)
			} else {
				b.WriteString(c)
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	for i, w := range width {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}

// Series is a named (x, y) sequence, the unit of figure reproduction.
type Series struct {
	Name string
	X, Y []float64
}

// Append adds one point.
func (s *Series) Append(x, y float64) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
}

// RenderSeries renders multiple series sharing an x-axis as one table.
// Series need not be aligned; missing points render as "-".
func RenderSeries(title, xlabel string, series ...*Series) string {
	// Collect the union of x values.
	seen := map[float64]bool{}
	var xs []float64
	for _, s := range series {
		for _, x := range s.X {
			if !seen[x] {
				seen[x] = true
				xs = append(xs, x)
			}
		}
	}
	sort.Float64s(xs)
	headers := []string{xlabel}
	for _, s := range series {
		headers = append(headers, s.Name)
	}
	t := NewTable(title, headers...)
	for _, x := range xs {
		cells := []string{trimFloat(x)}
		for _, s := range series {
			cell := "-"
			for i, sx := range s.X {
				if sx == x {
					cell = fmt.Sprintf("%.4g", s.Y[i])
					break
				}
			}
			cells = append(cells, cell)
		}
		t.AddRow(cells...)
	}
	return t.String()
}

func trimFloat(x float64) string {
	if x == math.Trunc(x) && math.Abs(x) < 1e15 {
		return fmt.Sprintf("%d", int64(x))
	}
	return fmt.Sprintf("%.4g", x)
}

// GeoMean returns the geometric mean of positive values, ignoring
// non-positive entries; it is used for the paper's "average speedup" rows.
func GeoMean(vals []float64) float64 {
	sum, n := 0.0, 0
	for _, v := range vals {
		if v > 0 {
			sum += math.Log(v)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}
