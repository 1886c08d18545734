package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"time"

	"voltstack/internal/explore"
	"voltstack/internal/pdngrid"
	"voltstack/internal/telemetry"
)

var (
	mHTTPRequests = telemetry.NewCounter("server_requests_total")
	mHTTPSeconds  = telemetry.NewHistogram("server_request_seconds")
)

// NewHandler mounts the v1 API and the telemetry observability endpoints
// (/metrics /healthz /debug/pprof) on one mux.
func NewHandler(m *Manager) *http.ServeMux {
	mux := telemetry.NewObservabilityMux()
	mux.HandleFunc("POST /v1/jobs", instrument(m, "submit", handleSubmit))
	mux.HandleFunc("GET /v1/jobs", instrument(m, "list", handleList))
	mux.HandleFunc("GET /v1/jobs/{id}", instrument(m, "status", handleStatus))
	mux.HandleFunc("GET /v1/jobs/{id}/result", instrument(m, "result", handleResult))
	mux.HandleFunc("GET /v1/jobs/{id}/stats", instrument(m, "stats", handleStats))
	mux.HandleFunc("DELETE /v1/jobs/{id}", instrument(m, "cancel", handleCancel))
	mux.HandleFunc("GET /v1/designs:evaluate", instrument(m, "evaluate", handleEvaluate))
	return mux
}

// instrument wraps a handler with the request metrics and, when the
// request carries a valid W3C traceparent header, joins the caller's
// trace: the trace context lands in the request context (so Submit and
// the synchronous evaluate path propagate it into the solvers) and the
// whole handler invocation records as an "http.<name>" span. Requests
// without the header — or with tracing disabled — pay nothing.
func instrument(m *Manager, name string, h func(*Manager, http.ResponseWriter, *http.Request)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		mHTTPRequests.Add(1)
		if tp := r.Header.Get("traceparent"); tp != "" {
			if tc, err := telemetry.ParseTraceparent(tp); err == nil {
				r = r.WithContext(telemetry.WithTraceContext(r.Context(), tc))
				if sp := telemetry.StartSpanTrace("http."+name, tc); sp != nil {
					defer sp.End()
				}
			}
		}
		h(m, w, r)
		mHTTPSeconds.Since(t0)
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, errorBody{Error: fmt.Sprintf(format, args...)})
}

func handleSubmit(m *Manager, w http.ResponseWriter, r *http.Request) {
	req, err := DecodeJobRequest(http.MaxBytesReader(w, r.Body, MaxRequestBody))
	if err != nil {
		writeError(w, http.StatusBadRequest, "%s", err)
		return
	}
	j, err := m.Submit(*req, telemetry.TraceContextFrom(r.Context()))
	if err != nil {
		var overload *OverloadError
		switch {
		case errors.As(err, &overload):
			secs := int(overload.RetryAfter.Round(time.Second).Seconds())
			if secs < 1 {
				secs = 1
			}
			w.Header().Set("Retry-After", strconv.Itoa(secs))
			writeError(w, http.StatusTooManyRequests, "%s", err)
		case errors.Is(err, ErrDraining):
			writeError(w, http.StatusServiceUnavailable, "%s", err)
		default:
			writeError(w, http.StatusBadRequest, "%s", err)
		}
		return
	}
	writeJSON(w, http.StatusAccepted, j.Status())
}

func handleList(m *Manager, w http.ResponseWriter, _ *http.Request) {
	jobs := m.Jobs()
	out := make([]JobStatus, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, j.Status())
	}
	writeJSON(w, http.StatusOK, out)
}

func handleStatus(m *Manager, w http.ResponseWriter, r *http.Request) {
	j, ok := m.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, j.Status())
}

func handleResult(m *Manager, w http.ResponseWriter, r *http.Request) {
	j, ok := m.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	st := j.Status()
	if st.State != StateDone {
		code := http.StatusConflict
		msg := fmt.Sprintf("job %s is %s, result not available", st.ID, st.State)
		if st.State == StateFailed {
			msg = fmt.Sprintf("job %s failed: %s", st.ID, st.Error)
		}
		writeError(w, code, "%s", msg)
		return
	}
	res, err := m.Result(j)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%s", err)
		return
	}
	if st.Kind == KindSweep {
		w.Header().Set("Content-Type", "application/json")
	} else {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	}
	w.WriteHeader(http.StatusOK)
	w.Write(res)
}

// handleStats serves GET /v1/jobs/{id}/stats: the job's resource-
// attribution document — live while it runs, frozen (and byte-stable
// across restarts) once terminal.
func handleStats(m *Manager, w http.ResponseWriter, r *http.Request) {
	j, ok := m.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	b, err := m.Stats(j)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%s", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(b)
}

func handleCancel(m *Manager, w http.ResponseWriter, r *http.Request) {
	j, ok := m.Cancel(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, j.Status())
}

// handleEvaluate serves GET /v1/designs:evaluate — one design point,
// synchronously, through the per-point cache. Query parameters:
//
//	kind          regular | vs (default regular)
//	layers        stack depth (default 8)
//	tsv           dense | sparse | few (default dense)
//	pad_fraction  power-pad fraction in (0,1] (default 0.5)
//	converters    converters per core, V-S only (default 4)
//	imbalance     workload point in [0,1] (default 0.65)
//	grid          mesh resolution NxN (default 16)
func handleEvaluate(m *Manager, w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	bad := func(field, format string, args ...any) {
		writeError(w, http.StatusBadRequest, "%s", fieldErr(field, format, args...))
	}

	kind := pdngrid.Regular
	switch v := q.Get("kind"); v {
	case "", "regular":
	case "vs", "voltage-stacked":
		kind = pdngrid.VoltageStacked
	default:
		bad("kind", "unknown kind %q (regular, vs)", v)
		return
	}
	layers, err := intParam(q.Get("layers"), 8)
	if err != nil || layers < 2 || layers > 16 {
		bad("layers", "must be an integer in [2, 16]")
		return
	}
	tsvName := q.Get("tsv")
	if tsvName == "" {
		tsvName = "dense"
	}
	mkTSV, ok := tsvTopologies[tsvName]
	if !ok {
		bad("tsv", "unknown TSV topology %q (have: dense sparse few)", tsvName)
		return
	}
	padFrac, err := floatParam(q.Get("pad_fraction"), 0.5)
	if err != nil || !isFinite(padFrac) || padFrac <= 0 || padFrac > 1 {
		bad("pad_fraction", "must be a finite value in (0, 1]")
		return
	}
	converters, err := intParam(q.Get("converters"), 4)
	if err != nil || converters < 1 || converters > 16 {
		bad("converters", "must be an integer in [1, 16]")
		return
	}
	imbalance, err := floatParam(q.Get("imbalance"), 0.65)
	if err != nil || !isFinite(imbalance) || imbalance < 0 || imbalance > 1 {
		bad("imbalance", "must be a finite value in [0, 1]")
		return
	}
	grid, err := intParam(q.Get("grid"), 16)
	if err != nil || grid < 4 || grid > 256 {
		bad("grid", "must be an integer in [4, 256]")
		return
	}

	sp := explore.DefaultSpace()
	sp.Layers = layers
	sp.Imbalance = imbalance
	sp.Params.GridNx, sp.Params.GridNy = grid, grid
	d := explore.Design{Kind: kind, TSV: mkTSV(), PadPowerFraction: padFrac}
	if kind == pdngrid.VoltageStacked {
		d.ConvertersPerCore = converters
	}
	out, err := m.EvaluateDesign(r.Context(), sp, d)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "evaluate: %s", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(out)
}

func intParam(s string, def int) (int, error) {
	if s == "" {
		return def, nil
	}
	return strconv.Atoi(s)
}

func floatParam(s string, def float64) (float64, error) {
	if s == "" {
		return def, nil
	}
	return strconv.ParseFloat(s, 64)
}

// Server couples a Manager with a listening HTTP server.
type Server struct {
	Manager *Manager
	ln      net.Listener
	srv     *http.Server
}

// Start listens on addr (":0" for an ephemeral port) and serves the API.
func Start(addr string, m *Manager) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("server: listen %s: %w", addr, err)
	}
	srv := &http.Server{Handler: NewHandler(m)}
	s := &Server{Manager: m, ln: ln, srv: srv}
	go srv.Serve(ln)
	return s, nil
}

// Addr returns the bound address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// URL returns the base URL of the server.
func (s *Server) URL() string { return "http://" + s.Addr() }

// Drain performs a graceful shutdown: admission off (new submissions get
// 503), queued and running jobs finish, then the HTTP server closes. If
// ctx expires first, in-flight jobs are hard-cancelled but stay
// resumable in the journal.
func (s *Server) Drain(ctx context.Context) error {
	err := s.Manager.Drain(ctx)
	if herr := s.srv.Shutdown(ctx); err == nil && herr != nil && !errors.Is(herr, context.Canceled) && !errors.Is(herr, context.DeadlineExceeded) {
		err = herr
	}
	return err
}

// Close hard-stops the server and manager, simulating a crash as far as
// job state is concerned: running jobs keep their resumable journal
// entries and checkpoints.
func (s *Server) Close() {
	s.srv.Close()
	s.Manager.Close()
}
