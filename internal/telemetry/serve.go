// Live HTTP introspection routes. The daemon mounts them on its API
// listener, so they answer mid-run next to the job API:
//
//	/metrics      Prometheus text exposition of the live registry
//	/healthz      liveness probe ({"status":"ok"} + uptime)
//	/debug/pprof  the standard pprof handlers
//
// Everything is registered on a private mux — never on
// http.DefaultServeMux — so an embedding process that serves its own HTTP
// (or a test that starts several servers) cannot collide with us.
package telemetry

import (
	"fmt"
	"net/http"
	httppprof "net/http/pprof"
	"time"
)

// processT0 is the process start, for /healthz's uptime.
var processT0 = time.Now()

// NewObservabilityMux builds the private mux with all introspection
// handlers, for an embedding service to mount on its own server.
func NewObservabilityMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		std.WritePrometheus(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, "{\"status\":\"ok\",\"uptime_seconds\":%.1f}\n", time.Since(processT0).Seconds())
	})
	mux.HandleFunc("/debug/pprof/", httppprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", httppprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", httppprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", httppprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", httppprof.Trace)
	return mux
}
