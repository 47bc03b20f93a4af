package stats

import (
	"fmt"
	"math"
	"strings"
)

// chart dimensions (plot area, excluding axes).
const (
	chartWidth  = 64
	chartHeight = 16
)

// seriesMarkers distinguish overlapping series in RenderChart.
var seriesMarkers = []byte{'*', 'o', '+', 'x', '#', '@', '%', '&'}

// RenderChart draws the series as an ASCII line chart — the closest a
// terminal gets to regenerating a paper figure. X values may differ between
// series; Y is linear and starts at zero (the evaluation's figures all have
// zero-based y-axes).
func RenderChart(title, xlabel, ylabel string, series ...*Series) string {
	var xmin, xmax, ymax float64
	first := true
	for _, s := range series {
		for i := range s.X {
			if first {
				xmin, xmax = s.X[i], s.X[i]
				first = false
			}
			xmin = math.Min(xmin, s.X[i])
			xmax = math.Max(xmax, s.X[i])
			ymax = math.Max(ymax, s.Y[i])
		}
	}
	if first || xmax == xmin || ymax <= 0 {
		return fmt.Sprintf("== %s ==\n(no plottable data)\n", title)
	}

	grid := make([][]byte, chartHeight)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", chartWidth))
	}
	col := func(x float64) int {
		c := int(math.Round((x - xmin) / (xmax - xmin) * float64(chartWidth-1)))
		return min(max(c, 0), chartWidth-1)
	}
	row := func(y float64) int {
		r := int(math.Round(y / ymax * float64(chartHeight-1)))
		return min(max(chartHeight-1-r, 0), chartHeight-1)
	}
	for si, s := range series {
		marker := seriesMarkers[si%len(seriesMarkers)]
		// Connect consecutive points with interpolated markers.
		for i := 0; i+1 < len(s.X); i++ {
			c0, r0 := col(s.X[i]), row(s.Y[i])
			c1, r1 := col(s.X[i+1]), row(s.Y[i+1])
			steps := max(absInt(c1-c0), absInt(r1-r0))
			if steps == 0 {
				steps = 1
			}
			for k := 0; k <= steps; k++ {
				f := float64(k) / float64(steps)
				c := c0 + int(math.Round(f*float64(c1-c0)))
				r := r0 + int(math.Round(f*float64(r1-r0)))
				grid[r][c] = marker
			}
		}
		if len(s.X) == 1 {
			grid[row(s.Y[0])][col(s.X[0])] = marker
		}
	}

	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", title)
	axisW := len(fmt.Sprintf("%.3g", ymax))
	for r := 0; r < chartHeight; r++ {
		yVal := ymax * float64(chartHeight-1-r) / float64(chartHeight-1)
		label := "      "
		if r == 0 || r == chartHeight-1 || r == chartHeight/2 {
			label = fmt.Sprintf("%*.3g", axisW, yVal)
		} else {
			label = strings.Repeat(" ", axisW)
		}
		fmt.Fprintf(&b, "%s |%s\n", label, string(grid[r]))
	}
	fmt.Fprintf(&b, "%s +%s\n", strings.Repeat(" ", axisW), strings.Repeat("-", chartWidth))
	fmt.Fprintf(&b, "%s  %-*.3g%*.3g\n", strings.Repeat(" ", axisW), chartWidth/2, xmin, chartWidth/2, xmax)
	fmt.Fprintf(&b, "x: %s, y: %s\n", xlabel, ylabel)
	for si, s := range series {
		fmt.Fprintf(&b, "  %c %s\n", seriesMarkers[si%len(seriesMarkers)], s.Name)
	}
	return b.String()
}

func absInt(a int) int {
	if a < 0 {
		return -a
	}
	return a
}
