package bench

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// GoBenchRow is one result line of `go test -bench -benchmem`.
type GoBenchRow struct {
	Name     string  `json:"name"`
	NsOp     float64 `json:"ns_op"`
	BytesOp  int64   `json:"bytes_op"`
	AllocsOp int64   `json:"allocs_op"`
}

// ParseGoBench turns `go test -bench -benchmem` output into WriteBaseline
// reports, one per package: its benchmarks in run order, the -GOMAXPROCS
// suffix dropped from their names. A FAIL line, a negative or non-finite
// cost, or an input without any benchmark is an error, so a broken run cannot
// overwrite a baseline.
func ParseGoBench(r io.Reader) (map[string]any, error) {
	reports := map[string]any{}
	pkg := ""
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		switch {
		case len(f) == 0:
		case f[0] == "FAIL" || f[0] == "---" && len(f) > 1 && f[1] == "FAIL:":
			return nil, fmt.Errorf("bench: go test failed: %s", sc.Text())
		case f[0] == "pkg:" && len(f) == 2:
			pkg = f[1]
		case strings.HasPrefix(f[0], "Benchmark") && len(f) >= 4:
			row := GoBenchRow{Name: f[0]}
			if i := strings.LastIndexByte(row.Name, '-'); i > 0 {
				if _, err := strconv.Atoi(row.Name[i+1:]); err == nil {
					row.Name = row.Name[:i]
				}
			}
			for i := 3; i < len(f); i += 2 { // value unit pairs after the iteration count
				var err error
				switch f[i] {
				case "ns/op":
					row.NsOp, err = strconv.ParseFloat(f[i-1], 64)
				case "B/op":
					row.BytesOp, err = strconv.ParseInt(f[i-1], 10, 64)
				case "allocs/op":
					row.AllocsOp, err = strconv.ParseInt(f[i-1], 10, 64)
				}
				if err != nil {
					return nil, fmt.Errorf("bench: %q: %w", sc.Text(), err)
				}
			}
			if !(row.NsOp >= 0) || math.IsInf(row.NsOp, 1) || row.BytesOp < 0 || row.AllocsOp < 0 {
				return nil, fmt.Errorf("bench: %q: a cost must be finite and non-negative", sc.Text())
			}
			rows, _ := reports[pkg].([]GoBenchRow)
			reports[pkg] = append(rows, row)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(reports) == 0 {
		return nil, fmt.Errorf("bench: no benchmark lines in the input")
	}
	return reports, nil
}
