package bench

import (
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
	for _, bad := range []string{"PASS\n", out + "--- FAIL: TestX (0.1s)\n", out + "FAIL\tugache/internal/serve\t0.1s\n"} {
		if _, err := ParseGoBench(strings.NewReader(bad)); err == nil {
			t.Fatalf("ParseGoBench accepted %q", bad)
		}
	}
}
