package telemetry

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sync"
)

// Flags is the shared observability flag set of the cmd/ binaries. Every
// binary registers the same flags so a user can attach metrics, tracing,
// profiling and provenance recording to any entry point the same way.
type Flags struct {
	Metrics    string // -metrics:    JSON metrics dump path on exit
	Trace      string // -trace:      Chrome trace_event JSON path on exit
	CPUProfile string // -cpuprofile: pprof CPU profile path, captured for the whole run
	Manifest   string // -manifest:   run provenance manifest JSON path on exit
	Progress   bool   // -progress:   periodic stderr progress lines for long runs

	manifest *Manifest
}

// RegisterFlags registers the observability flags on the default flag set.
// Call before flag.Parse.
func RegisterFlags() *Flags { return registerFlags(flag.CommandLine) }

func registerFlags(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.StringVar(&f.Metrics, "metrics", "", "write a JSON metrics dump to this path on exit")
	fs.StringVar(&f.Trace, "trace", "", "write a Chrome trace_event JSON timing trace on exit (load in chrome://tracing or Perfetto)")
	fs.StringVar(&f.CPUProfile, "cpuprofile", "", "write a CPU profile of the whole run to this file")
	fs.StringVar(&f.Manifest, "manifest", "", "write a run provenance manifest (flags, seeds, VCS stamp, output hashes) to this path on exit")
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
// RegisterFlags registers, or a retired one (-pprof, -events, -probes,
// -serve, -postmortem) that older manifests still record. None changes
// solver work, so the rest of a manifest's Flags names the work a run did,
// and old runs group with new.
func IsObservabilityFlag(name string) bool {
	switch name {
	case "pprof", "events", "probes", "serve", "postmortem":
		return true
	}
	return observabilityFlags().Lookup(name) != nil
}

// RunManifest returns the provenance manifest of the current run, or nil
// when -manifest is off. Binaries use it to attach seeds and extra outputs;
// all Manifest methods are nil-safe, so no call site needs a conditional.
func (f *Flags) RunManifest() *Manifest { return f.manifest }

// Init applies the parsed flags: enables the tracer and progress reporter
// as requested, and starts the provenance manifest's stdout capture and
// the CPU profile. It returns a flush function that must run before the
// process exits to stop profiling and write every dump; flush is never
// nil, idempotent (the second call is a no-op returning nil), and safe to
// call when nothing was enabled.
//
// On error, everything partially started is torn down before returning:
// a failed -cpuprofile releases the manifest's stdout capture.
func (f *Flags) Init() (flush func() error, err error) {
	if f.Trace != "" {
		EnableTracing()
	}
	if f.Progress {
		EnableProgress(0)
	}

	if f.Manifest != "" {
		f.manifest = NewManifest(binaryName())
		if err := f.manifest.CaptureStdout(); err != nil {
			f.manifest = nil
			return noopFlush, err
		}
		// Register the sibling dumps; they are hashed at manifest-write
		// time, after flush has produced them.
		if f.Metrics != "" {
			f.manifest.AddOutputFile("metrics", f.Metrics)
		}
		if f.Trace != "" {
			f.manifest.AddOutputFile("trace", f.Trace)
		}
	}

	var cpuFile *os.File
	if f.CPUProfile != "" {
		cpuFile, err = os.Create(f.CPUProfile)
		if err == nil {
			if err = pprof.StartCPUProfile(cpuFile); err != nil {
				cpuFile.Close()
			}
		}
		if err != nil {
			f.manifest.ReleaseStdout()
			f.manifest = nil
			return noopFlush, fmt.Errorf("telemetry: cpuprofile: %w", err)
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
				if err := writeFileWith(f.Metrics, std.WriteJSON); err != nil {
					errs = append(errs, err)
				}
			}
			if f.Trace != "" {
				if err := writeFileWith(f.Trace, WriteTrace); err != nil {
					errs = append(errs, err)
				}
			}
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
