package telemetry

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sync"
)

// Flags is the shared observability flag set of the cmd/ binaries. Every
// binary registers the same flags so a user can attach metrics, tracing,
// profiling, provenance recording and live introspection to any entry
// point the same way.
type Flags struct {
	Metrics    string // -metrics:    JSON dump path (+ ".prom" Prometheus dump) on exit
	Trace      string // -trace:      Chrome trace_event JSON path on exit
	Serve      string // -serve:      observability listen address (pprof + /metrics /healthz /statusz); enables live metrics collection
	CPUProfile string // -cpuprofile: pprof CPU profile path, captured for the whole run
	Manifest   string // -manifest:   run provenance manifest JSON path on exit
	Postmortem string // -postmortem: directory for solver post-mortem artifacts
	Progress   bool   // -progress:   periodic stderr progress lines for long runs

	manifest *Manifest
	server   *Server
}

// RegisterFlags registers the observability flags on the default flag set.
// Call before flag.Parse.
func RegisterFlags() *Flags { return registerFlags(flag.CommandLine) }

func registerFlags(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.StringVar(&f.Metrics, "metrics", "", "write a metrics dump on exit: JSON at this path, Prometheus text at path+\".prom\"")
	fs.StringVar(&f.Trace, "trace", "", "write a Chrome trace_event JSON timing trace on exit (load in chrome://tracing or Perfetto)")
	fs.StringVar(&f.Serve, "serve", "", "serve the live observability endpoint (pprof, /metrics, /healthz, /statusz) on this address (e.g. localhost:6060) and collect metrics for mid-run scraping")
	fs.StringVar(&f.CPUProfile, "cpuprofile", "", "write a CPU profile of the whole run to this file")
	fs.StringVar(&f.Manifest, "manifest", "", "write a run provenance manifest (flags, seeds, VCS stamp, output hashes) to this path on exit")
	fs.StringVar(&f.Postmortem, "postmortem", "", "write solver post-mortem JSON artifacts into this directory on failures")
	fs.BoolVar(&f.Progress, "progress", true, "print periodic stderr progress lines for long sweeps and Monte Carlo runs")
	return f
}

// observabilityFlags is a flag set holding only the flags RegisterFlags
// registers.
var observabilityFlags = sync.OnceValue(func() *flag.FlagSet {
	fs := flag.NewFlagSet("observability", flag.ContinueOnError)
	registerFlags(fs)
	return fs
})

// IsObservabilityFlag reports whether name is one of the flags
// RegisterFlags registers, or the retired -pprof, -events or -probes,
// which older manifests still record. None changes solver work, so the
// rest of a manifest's Flags names the work a run did, and old runs group
// with new.
func IsObservabilityFlag(name string) bool {
	return name == "pprof" || name == "events" || name == "probes" || observabilityFlags().Lookup(name) != nil
}

// RunManifest returns the provenance manifest of the current run, or nil
// when -manifest is off. Binaries use it to attach seeds and extra outputs;
// all Manifest methods are nil-safe, so no call site needs a conditional.
func (f *Flags) RunManifest() *Manifest { return f.manifest }

// ServeAddr returns the bound address of the observability server (useful
// when -serve was given ":0"), or "" when none is running.
func (f *Flags) ServeAddr() string { return f.server.Addr() }

// Init applies the parsed flags: enables the metric registry, tracer,
// progress reporter and post-mortem directory as requested, starts
// the observability server, the CPU profile and the provenance manifest.
// It returns a flush function that must run before the process exits to
// stop profiling, shut the server down and write every dump;
// flush is never nil, idempotent (the second call is a no-op returning
// nil), and safe to call when nothing was enabled.
//
// On error, everything partially started is torn down before returning,
// so a failed Init leaks no listener, goroutine or profile.
func (f *Flags) Init() (flush func() error, err error) {
	if f.Metrics != "" || f.Serve != "" || f.Manifest != "" {
		// -serve needs live counters to scrape; a manifest embeds the final
		// snapshot.
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

	// Failure unwinding: every started resource pushes an undo.
	var undo []func()
	fail := func(err error) (func() error, error) {
		for i := len(undo) - 1; i >= 0; i-- {
			undo[i]()
		}
		return noopFlush, err
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

// binaryName returns the invoking binary's base name for the manifest.
func binaryName() string {
	if len(os.Args) == 0 {
		return "unknown"
	}
	return filepath.Base(os.Args[0])
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
