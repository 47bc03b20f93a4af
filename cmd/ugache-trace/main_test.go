package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "re-record testdata/*.golden from this tree's output")

// TestCheckGen: -hotness refuses to generate no batches or empty batches, by
// flag name, and takes the smallest real size.
func TestCheckGen(t *testing.T) {
	for _, c := range []struct {
		batches, batch int
		flag           string
	}{
		{0, 2048, "-batches"},
		{-3, 2048, "-batches"},
		{96, 0, "-batch "},
		{96, -1, "-batch "},
	} {
		if err := hotness(io.Discard, "SYN-A", 0.01, c.batches, c.batch, 42); err == nil || !strings.HasPrefix(err.Error(), c.flag) {
			t.Errorf("-batches %d -batch %d: %v, want an error naming %s", c.batches, c.batch, err, c.flag)
		}
	}
	if err := hotness(io.Discard, "SYN-A", 0.01, 1, 1, 42); err != nil {
		t.Errorf("-batches 1 -batch 1: %v", err)
	}
}

// TestHotnessReport pins the -hotness report of a small stream: its skew
// lines and the held-out table, and the line that stands in for the table
// when there is no second half. Run with -update to re-record.
func TestHotnessReport(t *testing.T) {
	var out bytes.Buffer
	if err := hotness(&out, "SYN-A", 0.01, 8, 256, 42); err != nil {
		t.Fatal(err)
	}
	if err := hotness(&out, "SYN-A", 0.01, 1, 256, 42); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "hotness.golden")
	if *update {
		if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.String(); got != string(want) {
		t.Errorf("-hotness report:\n%s\nwant (%s):\n%s", got, golden, want)
	}
}
