package telemetry

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
)

func get(t *testing.T, srv *httptest.Server, path string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(body)
}

func TestHealthEndpoints(t *testing.T) {
	h := NewHealth()
	srv := httptest.NewServer(NewHandler(HandlerConfig{Health: h}))
	defer srv.Close()

	resp, body := get(t, srv, "/healthz")
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, "ok") {
		t.Fatalf("healthz: %d %q", resp.StatusCode, body)
	}
	if cl := resp.Header.Get("Content-Length"); cl != strconv.Itoa(len(body)) {
		t.Fatalf("healthz Content-Length %q for %d bytes", cl, len(body))
	}

	resp, body = get(t, srv, "/readyz")
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(body, "not ready") {
		t.Fatalf("readyz before SetReady: %d %q", resp.StatusCode, body)
	}
	h.SetReady(true)
	resp, body = get(t, srv, "/readyz")
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, "ready") {
		t.Fatalf("readyz after SetReady: %d %q", resp.StatusCode, body)
	}
	if cl := resp.Header.Get("Content-Length"); cl != strconv.Itoa(len(body)) {
		t.Fatalf("readyz Content-Length %q for %d bytes", cl, len(body))
	}
	h.SetReady(false)
	if resp, _ := get(t, srv, "/readyz"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz after clearing: %d", resp.StatusCode)
	}
}

func TestTimelineEndpoint(t *testing.T) {
	doc := `{"displayTimeUnit":"ms","traceEvents":[]}`
	srv := httptest.NewServer(NewHandler(HandlerConfig{Flight: &fakeFlight{trace: doc}}))
	defer srv.Close()
	resp, body := get(t, srv, "/debug/timeline")
	if resp.StatusCode != http.StatusOK || body != doc {
		t.Fatalf("timeline: %d %q", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("timeline Content-Type %q", ct)
	}
}

func TestHandlerNilEndpoints404(t *testing.T) {
	srv := httptest.NewServer(NewHandler(HandlerConfig{}))
	defer srv.Close()
	for _, path := range []string{"/metrics", "/debug/flight", "/debug/timeline", "/healthz", "/readyz", "/nope"} {
		if resp, _ := get(t, srv, path); resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s: %d, want 404", path, resp.StatusCode)
		}
	}
	// The index still lists the endpoint set.
	if resp, body := get(t, srv, "/"); resp.StatusCode != http.StatusOK || !strings.Contains(body, "/debug/timeline") {
		t.Fatalf("index: %d %q", resp.StatusCode, body)
	}
}
