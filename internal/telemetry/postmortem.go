// Post-mortem plumbing: the artifact writer that turns a failed solve's
// convergence report into a JSON file a human (or vsreport) can open after
// the process is gone. Configuring a directory also turns on the
// convergence probes, whose report is the artifact's payload.
package telemetry

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
)

var (
	postmortemDir atomic.Pointer[string]
	postmortemSeq atomic.Int64
)

// SetPostmortemDir configures (dir != "") or clears (dir == "") the
// directory DumpPostmortem writes artifacts into. The directory is created
// on the first dump, not here, so configuring a dir is side-effect free.
// Setting a directory also enables the convergence probes — an artifact
// without a trajectory is pointless.
func SetPostmortemDir(dir string) {
	if dir == "" {
		postmortemDir.Store(nil)
		return
	}
	postmortemDir.Store(&dir)
	EnableConvergenceProbes()
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
