package bench

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

func TestParseGoBench(t *testing.T) {
	const out = `goos: linux
pkg: ugache/internal/hashtable
BenchmarkLookup-2      	70265162	        16.79 ns/op	       0 B/op	       0 allocs/op
PASS
ok  	ugache/internal/hashtable	4.1s
pkg: ugache/internal/serve
BenchmarkServeCoalescedFunctional-2   	   38930	     30551 ns/op	    5080 B/op	       7 allocs/op
BenchmarkServeCoalescedTiming   	  120000	      9123 ns/op
ok  	ugache/internal/serve	9.0s
`
	got, err := ParseGoBench(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]any{
		"ugache/internal/hashtable": []GoBenchRow{{Name: "BenchmarkLookup", NsOp: 16.79}},
		"ugache/internal/serve": []GoBenchRow{
			{Name: "BenchmarkServeCoalescedFunctional", NsOp: 30551, BytesOp: 5080, AllocsOp: 7},
			{Name: "BenchmarkServeCoalescedTiming", NsOp: 9123},
		},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ParseGoBench = %+v\nwant %+v", got, want)
	}
	for _, bad := range []string{"PASS\n", out + "--- FAIL: TestX (0.1s)\n", out + "FAIL\tugache/internal/serve\t0.1s\n",
		"BenchmarkX-2 10 -5 ns/op -3 B/op -1 allocs/op\n", "BenchmarkX-2 10 5 ns/op -3 B/op\n", "BenchmarkX-2 10 5 ns/op 0 B/op -1 allocs/op\n",
		"BenchmarkX-2 10 NaN ns/op\n", "BenchmarkX-2 10 +Inf ns/op\n", "BenchmarkX-2 10 1e999 ns/op\n"} {
		if _, err := ParseGoBench(strings.NewReader(bad)); err == nil {
			t.Fatalf("ParseGoBench accepted %q", bad)
		}
	}
}

// FuzzParseGoBench: no input panics the parser, and every row it returns is
// finite and non-negative — what may be written into a BENCH baseline. The
// seeds in testdata/fuzz/FuzzParseGoBench are real output and the impossible
// rows that once parsed.
func FuzzParseGoBench(f *testing.F) {
	f.Fuzz(func(t *testing.T, out string) {
		reports, err := ParseGoBench(strings.NewReader(out))
		if err != nil {
			return
		}
		for pkg, rep := range reports {
			rows, _ := rep.([]GoBenchRow)
			if len(rows) == 0 {
				t.Fatalf("package %q reported without rows", pkg)
			}
			for _, r := range rows {
				if !(r.NsOp >= 0) || math.IsInf(r.NsOp, 1) || r.BytesOp < 0 || r.AllocsOp < 0 {
					t.Fatalf("%q: impossible row %+v", out, r)
				}
			}
		}
	})
}
