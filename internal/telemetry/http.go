package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"strconv"
)

// FlightDebug is the flight-recorder surface the handler exposes — in
// practice flight.BundleConfig, a value over the process's one recorder,
// accepted as an interface so telemetry does not import the flight package.
type FlightDebug interface {
	// WriteFlightState writes every record the rings hold, one JSON object
	// a line (the /debug/flight body: a bundle's flight.jsonl).
	WriteFlightState(w io.Writer) error
	// WriteTrace writes the Chrome trace-event JSON drawn from the rings
	// (the /debug/timeline body: a bundle's timeline.json).
	WriteTrace(w io.Writer) error
	// TriggerBundle writes a diagnostic bundle now and returns its path.
	TriggerBundle(reason string) (string, error)
}

// HandlerConfig selects which endpoints the telemetry handler exposes. Any
// nil field turns its endpoint(s) into 404s.
type HandlerConfig struct {
	// Registry backs /metrics (plain-text exposition format).
	Registry *Registry
	// Flight backs /debug/flight (the flight JSONL), /debug/timeline
	// (Chrome trace-event JSON for Perfetto / chrome://tracing) and
	// POST /debug/flight/bundle (write a diagnostic bundle on demand).
	Flight FlightDebug
	// Health backs /healthz and /readyz. /healthz answers 200 whenever the
	// process is alive; /readyz answers 200 or 503 from Health's readiness bit.
	Health *Health
	// EnablePprof mounts net/http/pprof under /debug/pprof/. Off by
	// default: the profiles expose stacks and heap contents, so the flag is
	// an explicit opt-in (-pprof on ugache-serve) rather than a side effect
	// of importing the package.
	EnablePprof bool
}

// statusJSON writes a small JSON status body with an explicit
// Content-Length, so probes reading liveness over keep-alive connections
// never wait on chunked-transfer framing.
func statusJSON(w http.ResponseWriter, code int, body string) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(code)
	io.WriteString(w, body)
}

// NewHandler builds the telemetry endpoint set described by cfg.
func NewHandler(cfg HandlerConfig) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		if cfg.Registry == nil {
			http.NotFound(w, req)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := cfg.Registry.WriteMetrics(w); err != nil {
			// Headers are gone; all we can do is note it inline.
			fmt.Fprintf(w, "# write error: %v\n", err)
		}
	})
	mux.HandleFunc("/debug/timeline", func(w http.ResponseWriter, req *http.Request) {
		if cfg.Flight == nil {
			http.NotFound(w, req)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Disposition", `attachment; filename="trace.json"`)
		if err := cfg.Flight.WriteTrace(w); err != nil {
			fmt.Fprintf(w, "// write error: %v\n", err)
		}
	})
	mux.HandleFunc("/debug/flight", func(w http.ResponseWriter, req *http.Request) {
		if cfg.Flight == nil {
			http.NotFound(w, req)
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		if err := cfg.Flight.WriteFlightState(w); err != nil {
			fmt.Fprintf(w, "// write error: %v\n", err)
		}
	})
	mux.HandleFunc("/debug/flight/bundle", func(w http.ResponseWriter, req *http.Request) {
		if cfg.Flight == nil {
			http.NotFound(w, req)
			return
		}
		if req.Method != http.MethodPost {
			w.Header().Set("Allow", http.MethodPost)
			http.Error(w, "POST required", http.StatusMethodNotAllowed)
			return
		}
		reason := req.URL.Query().Get("reason")
		if reason == "" {
			reason = "http"
		}
		path, err := cfg.Flight.TriggerBundle(reason)
		if err != nil {
			statusJSON(w, http.StatusInternalServerError,
				mustJSON(map[string]string{"error": err.Error()}))
			return
		}
		statusJSON(w, http.StatusOK, mustJSON(map[string]string{"bundle": path}))
	})
	if cfg.EnablePprof {
		// Explicit routes instead of the package's init-time DefaultServeMux
		// registration, so the profiles exist only behind this opt-in.
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, req *http.Request) {
		if cfg.Health == nil {
			http.NotFound(w, req)
			return
		}
		statusJSON(w, http.StatusOK, `{"status":"ok"}`)
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, req *http.Request) {
		if cfg.Health == nil {
			http.NotFound(w, req)
			return
		}
		if cfg.Health.ready.Load() {
			statusJSON(w, http.StatusOK, `{"status":"ready"}`)
			return
		}
		statusJSON(w, http.StatusServiceUnavailable, `{"status":"not ready"}`)
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path != "/" {
			http.NotFound(w, req)
			return
		}
		fmt.Fprint(w, "ugache telemetry\n\n"+
			"/metrics              plain-text counters, gauges, latency histograms\n"+
			"/debug/flight         every held flight record, one JSON object a line\n"+
			"/debug/timeline       Chrome trace-event JSON drawn from them (open in Perfetto)\n"+
			"/debug/flight/bundle  POST: write a diagnostic bundle now\n"+
			"/debug/pprof/         runtime profiles (only with pprof enabled)\n"+
			"/healthz              liveness probe\n"+
			"/readyz               readiness probe\n")
	})
	return mux
}

// mustJSON renders a small map for statusJSON bodies; the inputs are
// in-process strings, so encoding cannot fail.
func mustJSON(v interface{}) string {
	b, err := json.Marshal(v)
	if err != nil {
		return `{"error":"encode failure"}`
	}
	return string(b)
}
