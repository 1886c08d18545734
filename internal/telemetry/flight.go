// Flight-recorder and post-mortem plumbing. The recorder itself lives next
// to the numerics (sparse keeps per-iteration PCG residual rings); this
// file holds the process-wide gate that recorder consults and the artifact
// writer that turns a failed solve's trajectory into a JSON file a human
// (or vsreport) can open after the process is gone.
//
// Like every other gate in this package, recording is off by default and
// costs one atomic load per solve when disabled; the per-iteration ring
// appends only happen on solves that started with the gate on.
package telemetry

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
)

var (
	recorderOn    atomic.Bool
	postmortemDir atomic.Pointer[string]
	postmortemSeq atomic.Int64
)

// EnableFlightRecorder turns on trajectory recording in the numerical core
// (PCG residual rings). Recorders capture into
// per-solve buffers attached to returned errors; nothing is written to
// disk unless a post-mortem directory is also configured.
func EnableFlightRecorder() { recorderOn.Store(true) }

// DisableFlightRecorder turns trajectory recording back off. Solves already
// in flight keep recording into their own buffers.
func DisableFlightRecorder() { recorderOn.Store(false) }

// FlightRecorderEnabled reports whether solve-trajectory recording is on.
// Solver entry points check this once per solve.
func FlightRecorderEnabled() bool { return recorderOn.Load() }

// SetPostmortemDir configures (dir != "") or clears (dir == "") the
// directory DumpPostmortem writes artifacts into. The directory is created
// on the first dump, not here, so configuring a dir is side-effect free.
// Setting a directory also enables the flight recorder — an artifact
// without a trajectory is pointless.
func SetPostmortemDir(dir string) {
	if dir == "" {
		postmortemDir.Store(nil)
		return
	}
	postmortemDir.Store(&dir)
	EnableFlightRecorder()
}

// PostmortemEnabled reports whether a post-mortem directory is configured.
func PostmortemEnabled() bool { return postmortemDir.Load() != nil }

// DumpPostmortem writes v as indented JSON to
// <dir>/<prefix>-<seq>.json and returns the path. A process-wide sequence
// number keeps concurrent failures from clobbering each other. Returns
// ("", nil) when no post-mortem directory is configured, so call sites can
// dump unconditionally on failure paths.
func DumpPostmortem(prefix string, v any) (string, error) {
	dirp := postmortemDir.Load()
	if dirp == nil {
		return "", nil
	}
	dir := *dirp
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("telemetry: postmortem dir: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-%03d.json", prefix, postmortemSeq.Add(1)))
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("telemetry: postmortem: %w", err)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		f.Close()
		return "", fmt.Errorf("telemetry: postmortem: %w", err)
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("telemetry: postmortem: %w", err)
	}
	return path, nil
}
