package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ugache/internal/bench"
	"ugache/internal/timeline"
)

// TestDriftRunWritesEveryOutput runs the drift experiment at test scale with
// every output on: the JSON report, the timeline and the telemetry table.
func TestDriftRunWritesEveryOutput(t *testing.T) {
	dir := t.TempDir()
	jsonPath, tracePath := filepath.Join(dir, "drift.json"), filepath.Join(dir, "timeline.json")
	var out, errw bytes.Buffer
	args := []string{"-exp", "drift", "-quick", "-scale", "0.03", "-iters", "1",
		"-json-out", jsonPath, "-timeline", tracePath, "-telemetry"}
	if code := run(args, &out, &errw); code != 0 {
		t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, out.String(), errw.String())
	}

	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var env struct {
		Reports struct {
			Drift bench.DriftReport `json:"drift"`
		} `json:"reports"`
	}
	if err := json.Unmarshal(data, &env); err != nil {
		t.Fatal(err)
	}
	var modes []string
	for _, m := range env.Reports.Drift.Modes {
		modes = append(modes, m.Mode)
	}
	if got := strings.Join(modes, ","); got != "periodic,drift,lfu" {
		t.Fatalf("drift report modes %q, want periodic,drift,lfu", got)
	}

	f, err := os.Open(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rep, err := timeline.Validate(f)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"refresh", "drift-check"} {
		if rep.Names[timeline.ProcName{PID: timeline.ProcControl, Name: name}] == 0 {
			t.Errorf("timeline holds no %s span: %v", name, rep.Names)
		}
	}
	if !strings.Contains(out.String(), "cache_refresh_total") {
		t.Errorf("telemetry table names no cache_refresh_total:\n%s", out.String())
	}
}

func TestUnknownExperimentFails(t *testing.T) {
	var out, errw bytes.Buffer
	if code := run([]string{"-exp", "nosuch"}, &out, &errw); code != 1 {
		t.Fatalf("-exp nosuch exits %d, want 1", code)
	}
	if !strings.Contains(errw.String(), "nosuch") {
		t.Fatalf("stderr names no experiment: %q", errw.String())
	}
}
