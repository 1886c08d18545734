// Live HTTP introspection: a small observability server every binary can
// expose with -serve. Unlike the -metrics dump-on-exit path, these
// endpoints answer mid-run:
//
//	/metrics      Prometheus text exposition of the live registry
//	/healthz      liveness probe ({"status":"ok"} + uptime)
//	/debug/pprof  the standard pprof handlers
//
// Everything is registered on a private mux — never on
// http.DefaultServeMux — so an embedding process that serves its own HTTP
// (or a test that calls Flags.Init twice) cannot collide with us, and the
// listener is owned by a Server whose Close the flush path calls, so no
// goroutine or socket outlives the run.
package telemetry

import (
	"fmt"
	"net"
	"net/http"
	httppprof "net/http/pprof"
	"sync"
	"time"
)

// processT0 is the process start, for /healthz's uptime.
var processT0 = time.Now()

// Server is a live observability endpoint bound to one listener.
type Server struct {
	ln     net.Listener
	srv    *http.Server
	closed sync.Once
}

// NewObservabilityMux builds the private mux with all introspection
// handlers. Exposed so an embedding service can mount these routes on its
// own server instead of opening a second port.
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

// StartServer listens on addr (e.g. "localhost:6060", or ":0" for an
// ephemeral port) and serves the observability mux in the background.
// Stop it with Close; the flush function of Flags.Init does so
// automatically.
func StartServer(addr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: serve listen %s: %w", addr, err)
	}
	srv := &http.Server{Handler: NewObservabilityMux()}
	s := &Server{ln: ln, srv: srv}
	go srv.Serve(ln)
	return s, nil
}

// Addr returns the bound address (useful with ":0").
func (s *Server) Addr() string {
	if s == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close shuts the server down and closes its listener. Idempotent and
// nil-safe.
func (s *Server) Close() error {
	if s == nil {
		return nil
	}
	var err error
	s.closed.Do(func() {
		err = s.srv.Close() // closes the listener and all connections
	})
	return err
}
