package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"strconv"
)

// TraceWriter renders the last-N per-batch records as a JSON array — in
// practice *flight.Trace (serve.Server.Trace), accepted as an interface so
// telemetry does not import the flight package.
type TraceWriter interface {
	WriteJSON(w io.Writer) error
}

// TimelineWriter is anything that can export a Chrome trace-event JSON
// document — in practice *flight.Recorder, which draws the trace from its
// rings, accepted as an interface so telemetry does not import the flight
// package.
type TimelineWriter interface {
	WriteTrace(w io.Writer) error
}

// FlightDebug is the flight-recorder surface the handler exposes — in
// practice flight.BundleConfig, accepted as an interface so telemetry does
// not import the flight package.
type FlightDebug interface {
	// WriteFlightState renders the recent flight records as one JSON
	// document (the /debug/flight body).
	WriteFlightState(w io.Writer) error
	// TriggerBundle writes a diagnostic bundle now and returns its path.
	TriggerBundle(reason string) (string, error)
}

// HandlerConfig selects which endpoints the telemetry handler exposes. Any
// nil field turns its endpoint(s) into 404s.
type HandlerConfig struct {
	// Registry backs /metrics (plain-text exposition format).
	Registry *Registry
	// Trace backs /debug/trace (last-N batch records, JSON).
	Trace TraceWriter
	// Timeline backs /debug/timeline (Chrome trace-event JSON for
	// Perfetto / chrome://tracing).
	Timeline TimelineWriter
	// Flight backs /debug/flight (recent flight records, JSON) and
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
	mux.HandleFunc("/debug/trace", func(w http.ResponseWriter, req *http.Request) {
		if cfg.Trace == nil {
			http.NotFound(w, req)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		if err := cfg.Trace.WriteJSON(w); err != nil {
			fmt.Fprintf(w, "// write error: %v\n", err)
		}
	})
	mux.HandleFunc("/debug/timeline", func(w http.ResponseWriter, req *http.Request) {
		if cfg.Timeline == nil {
			http.NotFound(w, req)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Disposition", `attachment; filename="trace.json"`)
		if err := cfg.Timeline.WriteTrace(w); err != nil {
			fmt.Fprintf(w, "// write error: %v\n", err)
		}
	})
	mux.HandleFunc("/debug/flight", func(w http.ResponseWriter, req *http.Request) {
		if cfg.Flight == nil {
			http.NotFound(w, req)
			return
		}
		w.Header().Set("Content-Type", "application/json")
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
			"/debug/trace          last-N per-batch trace records (JSON)\n"+
			"/debug/timeline       Chrome trace-event JSON (open in Perfetto)\n"+
			"/debug/flight         recent flight-recorder records (JSON)\n"+
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
