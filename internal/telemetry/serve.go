// Live HTTP introspection: a small observability server every binary can
// expose with -serve. Unlike the -metrics dump-on-exit path, these
// endpoints answer mid-run:
//
//	/metrics      Prometheus text exposition of the live registry
//	/healthz      liveness probe ({"status":"ok"} + uptime)
//	/statusz      JSON progress snapshot: active experiments, points
//	              evaluated, solver-effort totals
//	/debug/pprof  the standard pprof handlers
//
// Everything is registered on a private mux — never on
// http.DefaultServeMux — so an embedding process that serves its own HTTP
// (or a test that calls Flags.Init twice) cannot collide with us, and the
// listener is owned by a Server whose Close the flush path calls, so no
// goroutine or socket outlives the run.
package telemetry

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	httppprof "net/http/pprof"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Active-task tracker behind /statusz's "current experiment" field. Gated
// like everything else: TaskStart/TaskEnd are one atomic load when no
// server is running. Call sites are per-experiment (dozens per run), never
// per-iteration.
var (
	statusOn    atomic.Bool
	activeMu    sync.Mutex
	activeTasks = map[string]int{}
	processT0   = time.Now()
)

// TaskStart marks a named unit of work (an experiment driver, a sweep) as
// running, for the /statusz active list. Pair with TaskEnd.
func TaskStart(name string) {
	if !statusOn.Load() {
		return
	}
	activeMu.Lock()
	activeTasks[name]++
	activeMu.Unlock()
}

// TaskEnd marks a named unit of work as finished.
func TaskEnd(name string) {
	if !statusOn.Load() {
		return
	}
	activeMu.Lock()
	if activeTasks[name]--; activeTasks[name] <= 0 {
		delete(activeTasks, name)
	}
	activeMu.Unlock()
}

// activeTaskNames returns the currently-running task names, sorted.
func activeTaskNames() []string {
	activeMu.Lock()
	names := make([]string, 0, len(activeTasks))
	for n := range activeTasks {
		names = append(names, n)
	}
	activeMu.Unlock()
	sort.Strings(names)
	return names
}

// StatusSnapshot is the /statusz payload: a coarse live view of where a
// run is, assembled from the metric registry's counters.
type StatusSnapshot struct {
	UptimeSeconds float64  `json:"uptime_seconds"`
	Active        []string `json:"active"` // currently-running experiments/sweeps

	ExperimentsDone int64 `json:"experiments_done"`
	PointsEvaluated int64 `json:"points_evaluated"`
	PDNSolves       int64 `json:"pdn_solves"`
	PCGIterations   int64 `json:"pcg_iterations"`
	PCGNonConverged int64 `json:"pcg_nonconverged"`
	MCTrials        int64 `json:"mc_trials"`

	// AMGRebuilds counts AMG preconditioner hierarchy builds; the shape of
	// the hierarchy behind the last probed solve is Convergence.AMG.
	AMGRebuilds int64 `json:"amg_rebuilds"`

	// Solver health: cumulative probe reports and detector trips from the
	// solver_health_* instruments, plus the most recently probed solve's
	// convergence report without its residual trajectory. Populated only
	// while convergence probes are on.
	HealthReports      int64              `json:"solver_health_reports,omitempty"`
	HealthStagnations  int64              `json:"solver_health_stagnations,omitempty"`
	HealthPlateaus     int64              `json:"solver_health_plateaus,omitempty"`
	HealthDegradations int64              `json:"solver_health_degradations,omitempty"`
	Convergence        *ConvergenceReport `json:"convergence,omitempty"`

	// Cache is the result cache's per-tier breakdown (memory LRU, disk
	// spill tier), present once the cache has seen any traffic.
	Cache *CacheStatus `json:"cache,omitempty"`
}

// CacheStatus is the /statusz view of the result cache, one field per
// rescache per-tier counter plus the live memory-tier occupancy gauges.
type CacheStatus struct {
	MemHits      int64 `json:"mem_hits"`
	MemMisses    int64 `json:"mem_misses"`
	MemEvictions int64 `json:"mem_evictions"`
	MemEntries   int64 `json:"mem_entries"`
	MemBytes     int64 `json:"mem_bytes"`
	DiskHits     int64 `json:"disk_hits"`
	DiskMisses   int64 `json:"disk_misses"`
	DiskSpills   int64 `json:"disk_spills"`
	DiskErrors   int64 `json:"disk_errors"`
	Shared       int64 `json:"singleflight_shared"`
}

// Status assembles the current snapshot from the process registry.
func Status() StatusSnapshot {
	s := StatusSnapshot{
		UptimeSeconds:   time.Since(processT0).Seconds(),
		Active:          activeTaskNames(),
		ExperimentsDone: std.Counter("core_experiments_total").Value(),
		PointsEvaluated: std.Counter("explore_points_total").Value(),
		PDNSolves:       std.Counter("pdngrid_solves_total").Value(),
		PCGIterations:   std.Counter("sparse_pcg_iterations_total").Value(),
		PCGNonConverged: std.Counter("sparse_pcg_nonconverged_total").Value(),
		MCTrials:        std.Counter("em_mc_trials_total").Value(),
		AMGRebuilds:     std.Counter("sparse_amg_builds_total").Value(),
	}
	s.HealthReports = std.Counter("solver_health_reports_total").Value()
	s.HealthStagnations = std.Counter("solver_health_stagnation_total").Value()
	s.HealthPlateaus = std.Counter("solver_health_plateau_total").Value()
	s.HealthDegradations = std.Counter("solver_health_precond_degradation_total").Value()
	if h := LastSolverHealth(); h != nil {
		// A copy without the trajectory keeps the live endpoint small.
		c := *h
		c.Residuals, c.ResidualsDropped = nil, 0
		s.Convergence = &c
	}
	cache := CacheStatus{
		MemHits:      std.Counter("rescache_mem_hits_total").Value(),
		MemMisses:    std.Counter("rescache_mem_misses_total").Value(),
		MemEvictions: std.Counter("rescache_mem_evictions_total").Value(),
		MemEntries:   int64(std.Gauge("rescache_mem_entries").Value()),
		MemBytes:     int64(std.Gauge("rescache_mem_bytes").Value()),
		DiskHits:     std.Counter("rescache_disk_hits_total").Value(),
		DiskMisses:   std.Counter("rescache_disk_misses_total").Value(),
		DiskSpills:   std.Counter("rescache_disk_spills_total").Value(),
		DiskErrors:   std.Counter("rescache_disk_errors_total").Value(),
		Shared:       std.Counter("rescache_singleflight_shared_total").Value(),
	}
	if cache != (CacheStatus{}) {
		s.Cache = &cache
	}
	if s.Active == nil {
		s.Active = []string{}
	}
	return s
}

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
	mux.HandleFunc("/statusz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(Status())
	})
	mux.HandleFunc("/debug/pprof/", httppprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", httppprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", httppprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", httppprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", httppprof.Trace)
	return mux
}

// StartServer listens on addr (e.g. "localhost:6060", or ":0" for an
// ephemeral port) and serves the observability mux in the background. It
// turns on the /statusz task tracker. Stop it with Close; the flush
// function of Flags.Init does so automatically.
func StartServer(addr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: serve listen %s: %w", addr, err)
	}
	srv := &http.Server{Handler: NewObservabilityMux()}
	s := &Server{ln: ln, srv: srv}
	statusOn.Store(true)
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
