package telemetry

import (
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

type fakeFlight struct {
	state      string
	trace      string
	bundleDir  string
	err        error
	lastReason string
}

func (f *fakeFlight) WriteFlightState(w io.Writer) error {
	_, err := io.WriteString(w, f.state)
	return err
}

func (f *fakeFlight) WriteTrace(w io.Writer) error {
	_, err := io.WriteString(w, f.trace)
	return err
}

func (f *fakeFlight) TriggerBundle(reason string) (string, error) {
	f.lastReason = reason
	return f.bundleDir, f.err
}

func TestFlightEndpoints(t *testing.T) {
	fl := &fakeFlight{state: `{"kind":"batch"}` + "\n", bundleDir: "/tmp/bundles/flight-1"}
	srv := httptest.NewServer(NewHandler(HandlerConfig{Flight: fl}))
	defer srv.Close()

	resp, body := get(t, srv, "/debug/flight")
	if resp.StatusCode != http.StatusOK || body != fl.state {
		t.Fatalf("flight state: %d %q", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("flight Content-Type %q", ct)
	}

	// GET on the bundle trigger is refused: writing bundles is a mutation.
	resp, _ = get(t, srv, "/debug/flight/bundle")
	if resp.StatusCode != http.StatusMethodNotAllowed || resp.Header.Get("Allow") != http.MethodPost {
		t.Fatalf("GET bundle: %d Allow=%q", resp.StatusCode, resp.Header.Get("Allow"))
	}

	resp, err := http.Post(srv.URL+"/debug/flight/bundle?reason=test-push", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	body = readBody(t, resp)
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, fl.bundleDir) {
		t.Fatalf("POST bundle: %d %q", resp.StatusCode, body)
	}
	if fl.lastReason != "test-push" {
		t.Fatalf("bundle reason = %q", fl.lastReason)
	}

	// Without an explicit reason the handler labels the trigger "http".
	resp, err = http.Post(srv.URL+"/debug/flight/bundle", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	readBody(t, resp)
	if fl.lastReason != "http" {
		t.Fatalf("default bundle reason = %q", fl.lastReason)
	}
}

func TestFlightBundleError(t *testing.T) {
	fl := &fakeFlight{err: errors.New("disk full")}
	srv := httptest.NewServer(NewHandler(HandlerConfig{Flight: fl}))
	defer srv.Close()
	resp, err := http.Post(srv.URL+"/debug/flight/bundle", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusInternalServerError || !strings.Contains(body, "disk full") {
		t.Fatalf("failed bundle: %d %q", resp.StatusCode, body)
	}
}

func TestFlightEndpointsNil404(t *testing.T) {
	srv := httptest.NewServer(NewHandler(HandlerConfig{}))
	defer srv.Close()
	if resp, _ := get(t, srv, "/debug/flight"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("flight without a recorder: %d", resp.StatusCode)
	}
	resp, err := http.Post(srv.URL+"/debug/flight/bundle", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	readBody(t, resp)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("bundle without a recorder: %d", resp.StatusCode)
	}
}

// TestPprofGuard pins that the profile endpoints exist only behind the
// explicit opt-in: they expose stacks and heap contents.
func TestPprofGuard(t *testing.T) {
	off := httptest.NewServer(NewHandler(HandlerConfig{}))
	defer off.Close()
	if resp, _ := get(t, off, "/debug/pprof/"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pprof reachable without opt-in: %d", resp.StatusCode)
	}

	on := httptest.NewServer(NewHandler(HandlerConfig{EnablePprof: true}))
	defer on.Close()
	resp, body := get(t, on, "/debug/pprof/")
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Fatalf("pprof index with opt-in: %d %q", resp.StatusCode, body)
	}
	if resp, _ := get(t, on, "/debug/pprof/symbol"); resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof symbol with opt-in: %d", resp.StatusCode)
	}
}

func readBody(t *testing.T, resp *http.Response) string {
	t.Helper()
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
