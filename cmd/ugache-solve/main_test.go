package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "re-record testdata/*.golden from this tree's output")

// solveCell matches a result row up to its solve column, the one cell read
// off the wall clock: the policy name, then the estimate ending in "us" at
// the column's fixed width. Bound lines open with a space and refusal rows
// carry no estimate, so neither matches.
var solveCell = regexp.MustCompile(`(?m)^(\S.{17} .{10}us) .{10}`)

// TestCompareGolden pins -compare on Servers C and B at the inputs the
// roadmap quotes, the solve column masked: on C every policy with the LP's
// bound and est/bound, on B the scan's placement and the LP reference's
// refusal naming the asymmetry. Run with -update to re-record.
func TestCompareGolden(t *testing.T) {
	for _, server := range []string{"C", "B"} {
		var out, errw bytes.Buffer
		args := []string{"-server", server, "-entries", "400000", "-alpha", "1.05", "-ratio", "0.02", "-compare"}
		if code := run(args, &out, &errw); code != 0 {
			t.Fatalf("-server %s: exit %d\n%s", server, code, errw.String())
		}
		got := solveCell.ReplaceAllString(out.String(), "${1}       wall")
		golden := filepath.Join("testdata", "server"+server+".golden")
		if *update {
			if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatal(err)
		}
		if got != string(want) {
			t.Errorf("-server %s -compare:\n%s\nwant (%s):\n%s", server, got, golden, want)
		}
	}
}

// TestExitCodes: a bad value exits 1 naming what it refused, an unknown flag
// exits 2 (there is no -save: a placement is solved from its inputs).
func TestExitCodes(t *testing.T) {
	for _, c := range []struct {
		args []string
		code int
		says string
	}{
		{[]string{"-entries", "0"}, 1, "-entries"},
		{[]string{"-server", "X"}, 1, "X"},
		{[]string{"-policy", "nosuch"}, 1, "nosuch"},
		{[]string{"-save", "p.bin"}, 2, "-save"},
	} {
		var out, errw bytes.Buffer
		if code := run(c.args, &out, &errw); code != c.code || !strings.Contains(errw.String(), c.says) {
			t.Errorf("%v: exit %d, stderr %q; want exit %d naming %q", c.args, code, errw.String(), c.code, c.says)
		}
	}
}
