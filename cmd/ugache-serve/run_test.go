package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"ugache/internal/flight"
	"ugache/internal/timeline"
)

var update = flag.Bool("update", false, "re-record testdata/*.golden from this tree's output")

// output is run's writer in these tests: safe for the watchdog's concurrent
// writes, and something a test can wait on.
type output struct {
	mu   sync.Mutex
	buf  bytes.Buffer
	grew chan struct{} // holds a token when there is text a waiter has not looked at
}

func newOutput() *output { return &output{grew: make(chan struct{}, 1)} }

func (o *output) Write(p []byte) (int, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	select {
	case o.grew <- struct{}{}:
	default:
	}
	return o.buf.Write(p)
}

func (o *output) String() string {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.buf.String()
}

// waitFor blocks until the output matches re and returns the match.
func (o *output) waitFor(t *testing.T, re string) []string {
	t.Helper()
	rx := regexp.MustCompile(re)
	deadline := time.After(30 * time.Second)
	for {
		if m := rx.FindStringSubmatch(o.String()); m != nil {
			return m
		}
		select {
		case <-o.grew:
		case <-deadline:
			t.Fatalf("no %q in the output after 30 s:\n%s", re, o.String())
		}
	}
}

// A number, with the unit time.Duration prints glued to it: latencies change
// unit with the machine ("812.4µs", "1.2ms"), and all of it masks to "N".
var number = regexp.MustCompile(`[0-9]+(\.[0-9]+)?(e[-+]?[0-9]+)?((ns|µs|ms|s)\b)?`)

// clockLines are the report lines whose presence or place, not just their
// numbers, depends on the wall clock: a router leg that missed its 50 ms deadline, a
// staged row served inside the staleness window, the last bundle's path
// (none if the watchdog had no time to trip), and the gauges the final
// snapshot lists only when positive (a link's utilisation in whichever
// extraction came last, a queue that was ever found non-empty).
var clockLines = []string{"partial results:", "stale serving:", "flight bundle:", "  sim_link_util_", "  serve_queue_depth_peak",
	// Always there when the watchdog trips, but wherever in the report its
	// goroutine finished writing the bundle; the flight-smoke case asserts it.
	"flight:            wrote diagnostic bundle"}

// mask is the report with its numbers masked, its clock lines dropped and
// the test's directory named TMP.
func mask(out, tmp string) string {
	var b strings.Builder
next:
	for _, line := range strings.SplitAfter(strings.ReplaceAll(out, tmp, "TMP"), "\n") {
		for _, p := range clockLines {
			if strings.HasPrefix(line, p) {
				continue next
			}
		}
		b.WriteString(number.ReplaceAllString(line, "N"))
	}
	return b.String()
}

// runArgs parses the argument list (TMP standing for dir) and runs it.
func runArgs(ctx context.Context, args, dir string, w io.Writer) error {
	o, err := parse(strings.Fields(strings.ReplaceAll(args, "TMP", dir)))
	if err != nil {
		return err
	}
	return run(ctx, o, w)
}

func checkTimeline(t *testing.T, path string) *timeline.ValidationReport {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rep, err := timeline.Validate(f)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if rep.Events == 0 {
		t.Errorf("%s: a valid trace of no events", path)
	}
	return rep
}

func readMetrics(t *testing.T, path string) map[string]float64 {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]float64
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return m
}

// checkCluster is what `make cluster-smoke` grepped for: the router counted
// every lookup (4 clients x 20 requests) and keys crossed nodes.
func checkCluster(t *testing.T, m map[string]float64) {
	t.Helper()
	if got := m["cluster_lookups_total"]; got != 4*20 {
		t.Errorf("cluster_lookups_total = %v, want clients x requests = 80", got)
	}
	if got := m["cluster_remote_keys_total"]; got <= 0 {
		t.Errorf("cluster_remote_keys_total = %v, want > 0", got)
	}
}

// TestRunGolden runs the command's known traffic — the argument lists of the
// three former make smokes (trace-smoke with -refresh spelled -refresh-mode
// post; at smokeScale), and the README's closed-loop prefetch and drift shapes — and holds
// each report, masked, to its golden, first recorded from the binary that
// still had a private cluster path. The smokes' own checks run in-process on
// the files the run left.
func TestRunGolden(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name, args string
		check      func(t *testing.T, dir, out string)
	}{
		{"trace-smoke", "-scale " + smokeScale + " -clients 4 -requests 20 -refresh-mode post -trace-out TMP/trace.json",
			func(t *testing.T, dir, _ string) {
				// The one post-run refresh is one tree on the control track.
				rep := checkTimeline(t, filepath.Join(dir, "trace.json"))
				for _, name := range []string{"refresh", "refresh-solve", "policy-solve"} {
					if n := rep.Names[timeline.ProcName{PID: timeline.ProcControl, Name: name}]; n != 1 {
						t.Errorf("trace holds %d %s spans, want the one refresh's", n, name)
					}
				}
			}},
		{"flight-smoke", "-scale " + smokeScale + " -open-loop -qps 4000 -duration 3s -slo-p99-ms 0.01 -bundle-dir TMP/bundles",
			func(t *testing.T, dir, out string) {
				// The unmeetable SLO trips the watchdog once (its cooldown
				// outlasts the run); the bundle must validate, exemplar included.
				bundles, _ := filepath.Glob(filepath.Join(dir, "bundles", "flight-*"))
				if len(bundles) != 1 || !strings.Contains(out, "wrote diagnostic bundle "+bundles[0]) {
					t.Fatalf("bundles written: %v, want one, and the report to say so:\n%s", bundles, out)
				}
				rep, err := flight.ValidateBundle(bundles[0])
				if err != nil {
					t.Fatal(err)
				}
				if rep.Manifest.Exemplar == nil || rep.ExemplarSpans == 0 {
					t.Errorf("bundle exemplar %+v resolved to %d spans, want a span tree", rep.Manifest.Exemplar, rep.ExemplarSpans)
				}
			}},
		{"cluster-smoke", "-nodes 2 -scale " + smokeScale + " -clients 4 -requests 20 -trace-out TMP/trace.json -metrics-out TMP/metrics.json",
			func(t *testing.T, dir, _ string) {
				rep := checkTimeline(t, filepath.Join(dir, "trace.json"))
				m := readMetrics(t, filepath.Join(dir, "metrics.json"))
				checkCluster(t, m)
				// Every worker of both nodes (Server C: 8 GPUs each) draws on a
				// track of its own, named apart.
				tracks, names := map[int64]bool{}, map[string]bool{}
				for _, ev := range rep.Trace {
					if ev.PID == timeline.ProcServe && ev.Ph == "M" && ev.Name == "thread_name" {
						var name string
						if err := json.Unmarshal(ev.Args["name"], &name); err != nil {
							t.Fatal(err)
						}
						tracks[ev.TID], names[name] = true, true
					}
				}
				if len(tracks) != 2*8 || len(names) != 2*8 {
					t.Errorf("serve process: %d named tracks, %d distinct names; want one per worker of 2 nodes x 8 GPUs: %v",
						len(tracks), len(names), names)
				}
				// A cross-node leg is a request in its owner's batch records,
				// and the default flight depth holds the whole run's: the
				// batch spans answer every request, legs included.
				var requests float64
				for i := range rep.Trace {
					if ev := &rep.Trace[i]; ev.PID == timeline.ProcServe && ev.Name == "batch" {
						if !tracks[ev.TID] {
							t.Errorf("batch span on unnamed serve track %d", ev.TID)
						}
						n, _ := ev.NumArg("requests")
						requests += n
					}
				}
				if served := m["serve_requests_total"]; m["cluster_dispatches_total"] == 0 || requests != served {
					t.Errorf("trace's batch spans answer %v requests, want serve_requests_total = %v (%v cross-node legs)",
						requests, served, m["cluster_dispatches_total"])
				}
				if n := rep.Names[timeline.ProcName{PID: timeline.ProcSim, Name: "link-flow"}]; n == 0 {
					t.Errorf("trace holds no link-flow spans")
				}
			}},
		{"post-lookahead", "-scale 0.002 -batch 4 -clients 4 -requests 20 -refresh-mode post -lookahead 2 -stale-threshold 4", nil},
		{"drift", "-scale 0.002 -batch 4 -clients 4 -requests 20 -refresh-mode drift", nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			out := newOutput()
			if err := runArgs(context.Background(), tc.args, dir, out); err != nil {
				t.Fatalf("run: %v\n%s", err, out)
			}
			if tc.check != nil {
				tc.check(t, dir, out.String())
			}
			got, golden := mask(out.String(), dir), filepath.Join("testdata", tc.name+".golden")
			if *update {
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("masked report differs from %s (-update re-records):\n--- got\n%s--- want\n%s", golden, got, want)
			}
		})
	}
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// TestClusterSharesTheSetUp is what the private cluster path hid: under
// -nodes 2 the listener, the watchdog and the shared shutdown's -metrics-out
// and final snapshot all exist, and a bad -net-bw is refused.
func TestClusterSharesTheSetUp(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	const args = "-nodes 2 -scale 0.002 -batch 4 -clients 4 -requests 20 -listen 127.0.0.1:0 -slo-p99-ms 0.01 -bundle-dir TMP/bundles -metrics-out TMP/metrics.json"

	if err := runArgs(context.Background(), "-nodes 2 -net-bw NaN", dir, io.Discard); err == nil || !strings.Contains(err.Error(), "NIC bandwidth") {
		t.Errorf("-net-bw NaN under -nodes 2: error %v, want the NIC bandwidth one", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	out := newOutput()
	done := make(chan error, 1)
	go func() { done <- runArgs(ctx, args, dir, out) }()
	base := "http://" + out.waitFor(t, `telemetry: +http://([^/]+)/metrics`)[1]
	out.waitFor(t, `run complete; telemetry still live`)
	if !strings.Contains(out.String(), "watchdog armed (p99 0.01ms") {
		t.Errorf("-slo-p99-ms did not arm the watchdog:\n%s", out)
	}
	if code, _ := get(t, base+"/readyz"); code != http.StatusOK {
		t.Errorf("/readyz while the run is live: %d, want 200", code)
	}
	if code, body := get(t, base+"/metrics"); code != http.StatusOK || !strings.Contains(body, "cluster_lookups_total 80") {
		t.Errorf("/metrics: %d, without cluster_lookups_total 80", code)
	}
	if code, _ := get(t, base+"/debug/flight"); code != http.StatusOK {
		t.Errorf("/debug/flight: %d, want the watchdog's state", code)
	}
	// A bundle of both nodes validates, and its exemplar resolves to its own
	// worker's tree (root and at most five stages), not to one holding the
	// other node's same-numbered batch.
	resp, err := http.Post(base+"/debug/flight/bundle", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var bundle struct{ Bundle string }
	err = json.NewDecoder(resp.Body).Decode(&bundle)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if rep, err := flight.ValidateBundle(bundle.Bundle); err != nil {
		t.Errorf("bundle %q: %v", bundle.Bundle, err)
	} else if rep.Manifest.Exemplar == nil || rep.ExemplarSpans > 6 {
		t.Errorf("bundle exemplar %+v resolved to %d spans, want its own tree", rep.Manifest.Exemplar, rep.ExemplarSpans)
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("run: %v\n%s", err, out)
	}
	checkCluster(t, readMetrics(t, filepath.Join(dir, "metrics.json")))
	if n := strings.Count(out.String(), "final telemetry snapshot:"); n != 1 {
		t.Errorf("final snapshot printed %d times, want once:\n%s", n, out)
	}
	if _, err := http.Get(base + "/readyz"); err == nil {
		t.Errorf("the listener outlived the run")
	}
}

// TestClusterTraceWithoutWatchdog: under -flight=false, -trace-out still
// runs the shared recorder, so /debug/trace serves every node's batch
// records from it, one per batch served, as /debug/timeline draws them.
func TestClusterTraceWithoutWatchdog(t *testing.T) {
	t.Parallel()
	const args = "-nodes 2 -scale 0.002 -batch 4 -clients 4 -requests 20 -flight=false -trace-out TMP/trace.json -listen 127.0.0.1:0"
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	out := newOutput()
	done := make(chan error, 1)
	go func() { done <- runArgs(ctx, args, t.TempDir(), out) }()
	base := "http://" + out.waitFor(t, `telemetry: +http://([^/]+)/metrics`)[1]
	out.waitFor(t, `run complete; telemetry still live`)

	_, body := get(t, base+"/metrics")
	m := regexp.MustCompile(`(?m)^serve_batches_total (\d+)$`).FindStringSubmatch(body)
	if m == nil {
		t.Fatalf("/metrics has no serve_batches_total:\n%s", body)
	}
	batches, _ := strconv.Atoi(m[1])
	_, body = get(t, base+"/debug/trace")
	var records []json.RawMessage
	if err := json.Unmarshal([]byte(body), &records); err != nil {
		t.Fatalf("/debug/trace: %v", err)
	}
	_, body = get(t, base+"/debug/timeline")
	rep, err := timeline.Validate(strings.NewReader(body))
	if err != nil {
		t.Fatalf("/debug/timeline: %v", err)
	}
	spans := rep.Names[timeline.ProcName{PID: timeline.ProcServe, Name: "batch"}]
	if len(records) != batches || spans != batches {
		t.Errorf("/debug/trace holds %d records and /debug/timeline %d batch spans; serve_batches_total = %d", len(records), spans, batches)
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("run: %v\n%s", err, out)
	}
}

// TestCancelMidOpenLoop cancels the context while the poller is offering
// load: run stops it, shuts down as a finished run does, and returns nil —
// what a SIGINT does to the command.
func TestCancelMidOpenLoop(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	out := newOutput()
	done := make(chan error, 1)
	go func() {
		done <- runArgs(ctx, "-scale 0.002 -open-loop -qps 2000 -duration 1m -listen 127.0.0.1:0", "", out)
	}()
	base := "http://" + out.waitFor(t, `telemetry: +http://([^/]+)/metrics`)[1]
	out.waitFor(t, `open loop: `)
	// Mid-run means requests have been served: poll the live registry.
	for served := regexp.MustCompile(`(?m)^serve_requests_total [1-9]`); ; time.Sleep(5 * time.Millisecond) {
		if _, body := get(t, base+"/metrics"); served.MatchString(body) {
			break
		}
	}
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatalf("run still going 2 s after the cancel:\n%s", out)
	}
	text := out.String()
	if n := strings.Count(text, "final telemetry snapshot:"); n != 1 {
		t.Errorf("final snapshot printed %d times, want once:\n%s", n, text)
	}
	if !strings.Contains(text, "interrupted; flushing") || strings.Contains(text, "offered:") {
		t.Errorf("want the interrupt noted and no summary of the cut-short run:\n%s", text)
	}
}

// TestOpenLoopLedger runs the open loop and holds its report to its own
// counters: the lag and observed p50 are over the same served requests, so
// the first cannot exceed the second; every offered request was served or
// shed, as the engine counted them; and the placement, profiled from a
// stream of the served config, keeps the host tier's key share small (it
// read 9 % when the profile was the closed loop's per-table draws). The
// engine line is parsed, not compared: a histogram quantile can sit a
// bucket away from the exact observed one.
//
// The second run offers a saturating rate to a one-slot queue, so many sends
// are shed, and the ledger must still close.
func TestOpenLoopLedger(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct{ name, args string }{
		{"fastfail", "-qps 5000 -duration 1s"},
		{"admission", "-batch 64 -qps " + saturateQPS + " -duration 100ms -queue-depth 1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			out := newOutput()
			args := "-scale " + smokeScale + " -open-loop -metrics-out TMP/metrics.json " + tc.args
			if err := runArgs(context.Background(), args, dir, out); err != nil {
				t.Fatalf("run: %v\n%s", err, out)
			}
			text := out.String()
			find := func(re string) []string {
				t.Helper()
				m := regexp.MustCompile(`(?m)^` + re).FindStringSubmatch(text)
				if m == nil {
					t.Fatalf("no %q in the report:\n%s", re, text)
				}
				return m[1:]
			}
			p50 := func(line string) time.Duration {
				t.Helper()
				d, err := time.ParseDuration(find(line + `: +p50 (\S+) +p99 \S+`)[0])
				if err != nil {
					t.Fatal(err)
				}
				return d
			}
			lag, observed := p50("lag"), p50("observed")
			p50("engine")
			if lag > observed {
				t.Errorf("lag p50 %v > observed p50 %v over the same requests", lag, observed)
			}
			count := func(re string) float64 {
				t.Helper()
				n, err := strconv.ParseFloat(find(re)[0], 64)
				if err != nil {
					t.Fatal(err)
				}
				return n
			}
			offered, served, shed := count(`offered: +(\d+) requests`), count(`served: +(\d+) requests`), count(`served: .* shed (\d+) `)
			m := readMetrics(t, filepath.Join(dir, "metrics.json"))
			if offered == 0 || offered != served+shed || served != m["serve_requests_total"] || shed != m["serve_rejected_total"] {
				t.Errorf("offered %v, served %v + shed %v; serve_requests_total %v + serve_rejected_total %v: want one ledger",
					offered, served, shed, m["serve_requests_total"], m["serve_rejected_total"])
			}
			t.Logf("%v stalls", count(`lag: .*; (\d+) stalls shifted the schedule`))
			var keys float64
			for _, tier := range []string{"local", "remote", "host", "network"} {
				keys += m["core_hit_"+tier+"_keys_total"]
			}
			host := m["core_hit_host_keys_total"] / keys
			t.Logf("host tier share %.2f%%", 100*host)
			if !(host < 0.05) {
				t.Errorf("host tier served %.1f%% of the keys, want < 5%%", 100*host)
			}
		})
	}
}

// TestParseDroppedFlags: -refresh, which reached nothing, and -admission,
// whose bounded wait is gone, are refused, not ignored.
func TestParseDroppedFlags(t *testing.T) {
	for _, args := range [][]string{{"-refresh"}, {"-admission", "500us"}} {
		if _, err := parse(args); err == nil {
			t.Errorf("parse(%v) succeeded, want an unknown-flag error", args)
		}
	}
	if o, err := parse(nil); err != nil || o.nodes != 1 || o.mode != "off" || !o.flight {
		t.Errorf("parse(nil) = %+v, %v", o, err)
	}
}

// TestRunRefusesEmptyRequests: a request of no samples (or fewer) is
// refused by name before anything is built, not a panic in the profiling
// draw.
func TestRunRefusesEmptyRequests(t *testing.T) {
	for _, batch := range []string{"0", "-1"} {
		err := runArgs(context.Background(), "-batch "+batch, "", io.Discard)
		if err == nil || !strings.Contains(err.Error(), "-batch must be >= 1") {
			t.Errorf("-batch %s: run = %v, want a -batch error", batch, err)
		}
	}
}
