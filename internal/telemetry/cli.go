package telemetry

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sync"
	"time"

	"voltstack/internal/telemetry/history"
)

// Flags is the shared observability flag set of the cmd/ binaries. Every
// binary registers the same flags so a user can attach metrics, tracing,
// structured event logging, profiling, provenance recording and live
// introspection to any entry point the same way.
type Flags struct {
	Metrics    string // -metrics:    JSON dump path (+ ".prom" Prometheus dump) on exit
	Trace      string // -trace:      Chrome trace_event JSON path on exit
	Events     string // -events:     structured JSON-lines event log ("stderr" or a path)
	Serve      string // -serve:      observability listen address (pprof + /metrics /healthz /statusz); enables live metrics collection
	CPUProfile string // -cpuprofile: pprof CPU profile path, captured for the whole run
	Manifest   string // -manifest:   run provenance manifest JSON path on exit
	Postmortem string // -postmortem: directory for solver post-mortem artifacts (enables convergence probes)
	Probes     bool   // -probes:     per-solve convergence analytics (condition estimates, detectors)
	History    string // -history:    append a per-run telemetry/convergence snapshot to the history store in this directory
	Progress   bool   // -progress:   periodic stderr progress lines for long runs

	// HistoryOptions bounds the -history store (segment rotation size,
	// retention count). Set before Init; the zero value means defaults.
	HistoryOptions history.Options

	manifest *Manifest
	server   *Server
	history  *history.Store
}

// HistoryStore returns the open history store when -history was given, or
// nil. Long-running binaries (vsserved) use it to append their own records
// — per-job snapshots — alongside the per-run record flush writes; the
// store stays open until the flush returned by Init runs.
func (f *Flags) HistoryStore() *history.Store { return f.history }

// RegisterFlags registers the observability flags on the default flag set.
// Call before flag.Parse.
func RegisterFlags() *Flags {
	f := &Flags{}
	flag.StringVar(&f.Metrics, "metrics", "", "write a metrics dump on exit: JSON at this path, Prometheus text at path+\".prom\"")
	flag.StringVar(&f.Trace, "trace", "", "write a Chrome trace_event JSON timing trace on exit (load in chrome://tracing or Perfetto)")
	flag.StringVar(&f.Events, "events", "", "write a structured JSON-lines event log to this path (\"stderr\" or \"-\" for stderr)")
	flag.StringVar(&f.Serve, "serve", "", "serve the live observability endpoint (pprof, /metrics, /healthz, /statusz) on this address (e.g. localhost:6060) and collect metrics for mid-run scraping")
	flag.StringVar(&f.CPUProfile, "cpuprofile", "", "write a CPU profile of the whole run to this file")
	flag.StringVar(&f.Manifest, "manifest", "", "write a run provenance manifest (flags, seeds, VCS stamp, output hashes) to this path on exit")
	flag.StringVar(&f.Postmortem, "postmortem", "", "write solver post-mortem JSON artifacts into this directory on failures (enables convergence probes)")
	flag.BoolVar(&f.Probes, "probes", false, "enable per-solve convergence probes (condition estimates, stagnation/plateau detectors); results are byte-identical either way")
	flag.StringVar(&f.History, "history", "", "append a per-run telemetry/convergence snapshot to the history store in this directory (enables metrics and probes)")
	flag.BoolVar(&f.Progress, "progress", true, "print periodic stderr progress lines for long sweeps and Monte Carlo runs")
	return f
}

// RunManifest returns the provenance manifest of the current run, or nil
// when -manifest is off. Binaries use it to attach seeds and extra outputs;
// all Manifest methods are nil-safe, so no call site needs a conditional.
func (f *Flags) RunManifest() *Manifest { return f.manifest }

// ServeAddr returns the bound address of the observability server (useful
// when -serve was given ":0"), or "" when none is running.
func (f *Flags) ServeAddr() string { return f.server.Addr() }

// Init applies the parsed flags: enables the metric registry, tracer,
// event log, progress reporter and convergence probes as requested, starts
// the observability server, the CPU profile and the provenance manifest.
// It returns a flush function that must run before the process exits to
// stop profiling, shut the server down and write every dump;
// flush is never nil, idempotent (the second call is a no-op returning
// nil), and safe to call when nothing was enabled.
//
// On error, everything partially started is torn down before returning,
// so a failed Init leaks no listener, goroutine or profile.
func (f *Flags) Init() (flush func() error, err error) {
	if f.Metrics != "" || f.Serve != "" || f.Manifest != "" || f.History != "" {
		// -serve needs live counters to scrape; a manifest embeds the final
		// snapshot; a history record flattens the final counters.
		Enable()
	}
	if f.Trace != "" {
		EnableTracing()
	}
	if f.Progress {
		EnableProgress(0)
	}
	if f.Postmortem != "" {
		SetPostmortemDir(f.Postmortem)
	}
	if f.Probes || f.History != "" {
		// A history snapshot without convergence analytics would miss the
		// fields the trend report exists to track.
		EnableConvergenceProbes()
	}

	var eventFile *os.File
	if f.Events != "" {
		var w io.Writer = os.Stderr
		if f.Events != "stderr" && f.Events != "-" {
			eventFile, err = os.Create(f.Events)
			if err != nil {
				return noopFlush, fmt.Errorf("telemetry: events: %w", err)
			}
			w = eventFile
		}
		EnableEventLog(w, slog.LevelInfo)
	}

	// Failure unwinding: every started resource pushes an undo.
	var undo []func()
	fail := func(err error) (func() error, error) {
		for i := len(undo) - 1; i >= 0; i-- {
			undo[i]()
		}
		if eventFile != nil {
			DisableEventLog()
			eventFile.Close()
		}
		return noopFlush, err
	}

	if f.History != "" {
		f.history, err = history.Open(f.History, f.HistoryOptions)
		if err != nil {
			return fail(fmt.Errorf("telemetry: history: %w", err))
		}
		undo = append(undo, func() { f.history.Close(); f.history = nil })
	}

	var cpuFile *os.File
	if f.CPUProfile != "" {
		cpuFile, err = os.Create(f.CPUProfile)
		if err != nil {
			return fail(fmt.Errorf("telemetry: cpuprofile: %w", err))
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return fail(fmt.Errorf("telemetry: cpuprofile: %w", err))
		}
		undo = append(undo, func() { pprof.StopCPUProfile(); cpuFile.Close() })
	}

	// Handlers live on a private mux (never http.DefaultServeMux) and the
	// listener is closed by flush, so repeated Init calls in one process
	// neither panic on duplicate pprof registration nor leak sockets.
	if f.Serve != "" {
		srv, err := StartServer(f.Serve)
		if err != nil {
			return fail(err)
		}
		f.server = srv
		undo = append(undo, func() { srv.Close(); f.server = nil })
		fmt.Fprintf(os.Stderr, "observability: serving http://%s/ (/metrics /healthz /statusz /debug/pprof)\n", srv.Addr())
	}

	if f.Manifest != "" {
		f.manifest = NewManifest(binaryName())
		if err := f.manifest.CaptureStdout(); err != nil {
			return fail(err)
		}
		// Register the sibling dumps; they are hashed at manifest-write
		// time, after flush has produced them.
		if f.Metrics != "" {
			f.manifest.AddOutputFile("metrics", f.Metrics)
			f.manifest.AddOutputFile("metrics.prom", f.Metrics+".prom")
		}
		if f.Trace != "" {
			f.manifest.AddOutputFile("trace", f.Trace)
		}
		if eventFile != nil {
			f.manifest.AddOutputFile("events", f.Events)
		}
	}

	var once sync.Once
	flush = func() error {
		var errs []error
		once.Do(func() {
			if cpuFile != nil {
				pprof.StopCPUProfile()
				if err := cpuFile.Close(); err != nil {
					errs = append(errs, err)
				}
			}
			if f.Metrics != "" {
				if err := dumpMetrics(f.Metrics); err != nil {
					errs = append(errs, err)
				}
			}
			if f.Trace != "" {
				if err := writeFileWith(f.Trace, WriteTrace); err != nil {
					errs = append(errs, err)
				}
			}
			if eventFile != nil {
				DisableEventLog()
				if err := eventFile.Close(); err != nil {
					errs = append(errs, err)
				}
			}
			if f.history != nil {
				if err := f.history.Append(runHistoryRecord()); err != nil {
					errs = append(errs, err)
				}
				if err := f.history.Close(); err != nil {
					errs = append(errs, err)
				}
				f.history = nil
			}
			if err := f.server.Close(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				errs = append(errs, err)
			}
			f.server = nil
			if f.manifest != nil {
				if err := f.manifest.WriteFile(f.Manifest); err != nil {
					errs = append(errs, err)
				}
			}
		})
		return errors.Join(errs...)
	}
	return flush, nil
}

// runHistoryRecord flattens the run's final process registry — counters,
// gauges, and the last solver-health report — into one history record, the
// CLI-side counterpart of vsserved's per-job snapshots.
func runHistoryRecord() history.Record {
	snap := std.Snapshot()
	vals := make(map[string]float64, len(snap.Counters)+len(snap.Gauges)+8)
	for name, v := range snap.Counters {
		vals[name] = float64(v)
	}
	for name, v := range snap.Gauges {
		vals[name] = v
	}
	if h := LastSolverHealth(); h != nil {
		vals["health_iterations"] = float64(h.Iterations)
		vals["health_final_residual"] = h.FinalResidual
		if h.CondEstimate > 0 {
			vals["health_cond_estimate"] = h.CondEstimate
			vals["health_lambda_min"] = h.LambdaMin
			vals["health_lambda_max"] = h.LambdaMax
		}
		if h.ReductionFactor > 0 {
			vals["health_reduction_factor"] = h.ReductionFactor
		}
	}
	return history.Record{
		T:      time.Now().UnixMilli(),
		Kind:   "run",
		ID:     binaryName(),
		Values: vals,
	}
}

// binaryName returns the invoking binary's base name for the manifest.
func binaryName() string {
	if len(os.Args) == 0 {
		return "unknown"
	}
	name := os.Args[0]
	for i := len(name) - 1; i >= 0; i-- {
		if name[i] == '/' || name[i] == '\\' {
			return name[i+1:]
		}
	}
	return name
}

func noopFlush() error { return nil }

// dumpMetrics writes the process registry as JSON at path and in the
// Prometheus text format at path+".prom".
func dumpMetrics(path string) error {
	if err := writeFileWith(path, std.WriteJSON); err != nil {
		return err
	}
	return writeFileWith(path+".prom", std.WritePrometheus)
}

// writeFileWith writes the dump to a temp file in the destination
// directory and renames it into place, so an interrupted shutdown (a
// second SIGTERM mid-drain, a crash in another flush step) can never leave
// a truncated dump — in particular a -trace file with no closing bracket —
// at the requested path.
func writeFileWith(path string, write func(w io.Writer) error) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, ".tmp-"+filepath.Base(path)+"-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	if err := write(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}
