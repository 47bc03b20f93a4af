// bench_envelope turns `go test -bench -benchmem` output on stdin into a
// checked-in BENCH_*.json baseline: the same envelope ugache-bench -json-out
// writes (internal/bench.WriteBaseline), with one report per package. The
// input is passed through to stderr so the run stays readable.
//
//	go test -run xxx -bench . -benchmem ./pkg | go run ./scripts/bench_envelope <out.json> <command> <description>
package main

import (
	"fmt"
	"io"
	"os"

	"ugache/internal/bench"
)

func main() {
	if len(os.Args) != 4 {
		fmt.Fprintln(os.Stderr, "usage: go test -run xxx -bench . -benchmem PKGS | bench_envelope <out.json> <command> <description>")
		os.Exit(2)
	}
	reports, err := bench.ParseGoBench(io.TeeReader(os.Stdin, os.Stderr))
	if err == nil {
		err = bench.WriteBaseline(os.Args[1], os.Args[3], os.Args[2], reports)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench_envelope:", err)
		os.Exit(1)
	}
}
