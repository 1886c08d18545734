// Run provenance manifests. Every cmd/ binary can write, on exit, a single
// JSON record that makes the run reproducible and diffable after the fact:
// the exact flag/config set, seeds, the VCS revision baked into the binary
// by the Go toolchain, Go/OS versions, wall time, a final metrics snapshot,
// and a SHA-256 of every output the run produced (including stdout, captured
// byte-for-byte through a pipe so the terminal output is unchanged).
//
// The schema is versioned and pinned by a golden-file test
// (TestManifestSchemaGolden): field renames or removals are a schema bump,
// not a silent drift, because cmd/vsreport and external tooling parse these
// files long after the producing binary is gone.
package telemetry

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"time"
)

// ManifestSchemaVersion identifies the manifest JSON layout. Bump it when a
// field is renamed, removed, or changes meaning (additions are backward
// compatible and do not require a bump).
const ManifestSchemaVersion = 1

// ManifestOutput records one output artifact of a run.
type ManifestOutput struct {
	// Name identifies the artifact role ("stdout", "metrics", "trace",
	// ...). Path is empty for streams that are not files.
	Name   string `json:"name"`
	Path   string `json:"path,omitempty"`
	SHA256 string `json:"sha256"`
	Bytes  int64  `json:"bytes"`
	// Missing marks an output that was registered but never produced
	// (e.g. the run failed before the dump); its hash is empty.
	Missing bool `json:"missing,omitempty"`
}

// Manifest is the provenance record of one binary invocation.
type Manifest struct {
	Schema int    `json:"schema"`
	Binary string `json:"binary"`

	// Invocation: raw argv and every registered flag with its effective
	// (post-parse) value, defaults included — the full config set.
	Args  []string          `json:"args"`
	Flags map[string]string `json:"flags"`
	Seeds map[string]int64  `json:"seeds,omitempty"`

	// Toolchain and source provenance, from runtime/debug.ReadBuildInfo.
	GoVersion   string `json:"go_version"`
	OS          string `json:"os"`
	Arch        string `json:"arch"`
	VCSRevision string `json:"vcs_revision,omitempty"`
	VCSTime     string `json:"vcs_time,omitempty"`
	VCSModified bool   `json:"vcs_modified,omitempty"`

	// Timing.
	StartTime   string  `json:"start_time"` // RFC 3339
	WallSeconds float64 `json:"wall_seconds"`

	// Final metrics snapshot: the same object `-metrics` dumps.
	Metrics json.RawMessage `json:"metrics,omitempty"`

	// Convergence is the process's convergence record: the report of the
	// run's hardest probed solve (see SolverHealth), absent when the run
	// made no PCG solve.
	Convergence *ConvergenceReport `json:"convergence,omitempty"`

	// Output artifacts with content hashes.
	Outputs []ManifestOutput `json:"outputs"`

	// ExitError carries the failure message of an unsuccessful run.
	ExitError string `json:"exit_error,omitempty"`

	start        time.Time
	stdoutHasher *stdoutCapture
	filePaths    map[string]string // name -> path, hashed at Write time
	fileOrder    []string
}

// NewManifest starts a provenance record for the named binary: argv, build
// info and the start clock are captured immediately, everything else at
// Write time. All methods are nil-safe so un-flagged runs can keep a nil
// manifest and skip every call site conditionally-free.
func NewManifest(binary string) *Manifest {
	m := &Manifest{
		Schema:    ManifestSchemaVersion,
		Binary:    binary,
		Args:      append([]string(nil), os.Args[1:]...),
		GoVersion: runtime.Version(),
		OS:        runtime.GOOS,
		Arch:      runtime.GOARCH,
		start:     time.Now(),
		filePaths: map[string]string{},
	}
	m.StartTime = m.start.Format(time.RFC3339)
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				m.VCSRevision = s.Value
			case "vcs.time":
				m.VCSTime = s.Value
			case "vcs.modified":
				m.VCSModified = s.Value == "true"
			}
		}
	}
	return m
}

// buildStamp is computed once: reading build info walks the module graph.
var buildStamp = sync.OnceValue(func() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev string
		var dirty bool
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			if dirty {
				return rev + "+dirty"
			}
			return rev
		}
	}
	return runtime.Version()
})

// BuildStamp identifies the code version of the running binary: the VCS
// revision the Go toolchain baked in (the same value the manifest records
// as vcs_revision), with a "+dirty" suffix when the tree was modified,
// falling back to the Go version for unstamped builds (go test, go run).
// The result cache folds this into every content-addressed key so results
// computed by different code versions never alias.
func BuildStamp() string { return buildStamp() }

// AddSeed records a named RNG seed. Nil-safe.
func (m *Manifest) AddSeed(name string, seed int64) {
	if m == nil {
		return
	}
	if m.Seeds == nil {
		m.Seeds = map[string]int64{}
	}
	m.Seeds[name] = seed
}

// AddOutputFile registers a file artifact under the given role name; the
// file is hashed when the manifest is written (after all dumps have
// happened), so register it as soon as the path is known. Nil-safe.
func (m *Manifest) AddOutputFile(name, path string) {
	if m == nil || path == "" {
		return
	}
	if _, dup := m.filePaths[name]; !dup {
		m.fileOrder = append(m.fileOrder, name)
	}
	m.filePaths[name] = path
}

// SetExitError records the failure a run is about to exit with. Nil-safe.
func (m *Manifest) SetExitError(err error) {
	if m == nil || err == nil {
		return
	}
	m.ExitError = err.Error()
}

// stdoutCapture tees os.Stdout through a pipe so the manifest can hash the
// byte stream without altering it.
type stdoutCapture struct {
	orig  *os.File
	w     *os.File
	h     hash.Hash
	n     int64
	done  chan struct{}
	cpErr error
}

// CaptureStdout replaces os.Stdout with a pipe whose contents are copied,
// unmodified, to the real stdout while being hashed. Call ReleaseStdout
// (directly or via Write) before the process exits. Nil-safe: a nil
// manifest captures nothing.
func (m *Manifest) CaptureStdout() error {
	if m == nil || m.stdoutHasher != nil {
		return nil
	}
	r, w, err := os.Pipe()
	if err != nil {
		return fmt.Errorf("telemetry: manifest stdout capture: %w", err)
	}
	c := &stdoutCapture{orig: os.Stdout, w: w, h: sha256.New(), done: make(chan struct{})}
	os.Stdout = w
	go func() {
		defer close(c.done)
		n, err := io.Copy(io.MultiWriter(c.orig, c.h), r)
		c.n = n
		c.cpErr = err
		r.Close()
	}()
	m.stdoutHasher = c
	return nil
}

// ReleaseStdout restores the real os.Stdout and records the captured
// stream's hash as the "stdout" output. Idempotent and nil-safe.
func (m *Manifest) ReleaseStdout() {
	if m == nil || m.stdoutHasher == nil {
		return
	}
	c := m.stdoutHasher
	m.stdoutHasher = nil
	c.w.Close()
	<-c.done
	os.Stdout = c.orig
	out := ManifestOutput{Name: "stdout", Bytes: c.n}
	if c.cpErr == nil {
		out.SHA256 = hex.EncodeToString(c.h.Sum(nil))
	} else {
		out.Missing = true
	}
	m.Outputs = append(m.Outputs, out)
}

// hashFile returns the SHA-256 and size of the file at path.
func hashFile(path string) (string, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", 0, err
	}
	defer f.Close()
	h := sha256.New()
	n, err := io.Copy(h, f)
	if err != nil {
		return "", 0, err
	}
	return hex.EncodeToString(h.Sum(nil)), n, nil
}

// finalize fills the write-time fields: flag values, wall clock, metrics
// snapshot, convergence record, and the hashes of all registered outputs.
func (m *Manifest) finalize() {
	m.ReleaseStdout()
	m.WallSeconds = time.Since(m.start).Seconds()
	if m.Flags == nil {
		m.Flags = map[string]string{}
		flag.VisitAll(func(f *flag.Flag) { m.Flags[f.Name] = f.Value.String() })
	}
	if m.Metrics == nil {
		var buf bytes.Buffer
		if err := std.WriteJSON(&buf); err == nil {
			m.Metrics = json.RawMessage(buf.Bytes())
		}
	}
	m.Convergence = SolverHealth()
	for _, name := range m.fileOrder {
		path := m.filePaths[name]
		out := ManifestOutput{Name: name, Path: path}
		if sum, n, err := hashFile(path); err == nil {
			out.SHA256, out.Bytes = sum, n
		} else {
			out.Missing = true
		}
		m.Outputs = append(m.Outputs, out)
	}
}

// WriteJSON finalizes the manifest and writes it as indented JSON.
func (m *Manifest) WriteJSON(w io.Writer) error {
	if m == nil {
		return nil
	}
	m.finalize()
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}

// WriteFile finalizes the manifest and writes it to path through a temp
// file and rename, so a failed write leaves any earlier file at path
// whole. Nil-safe: a nil manifest writes nothing.
func (m *Manifest) WriteFile(path string) error {
	if m == nil || path == "" {
		return nil
	}
	if err := writeFileWith(path, m.WriteJSON); err != nil {
		return fmt.Errorf("telemetry: manifest: %w", err)
	}
	return nil
}

// LoadManifest reads a manifest JSON file written by WriteFile.
func LoadManifest(path string) (*Manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("telemetry: manifest %s: %w", path, err)
	}
	if m.Schema > ManifestSchemaVersion {
		return nil, fmt.Errorf("telemetry: manifest %s: schema %d newer than supported %d",
			path, m.Schema, ManifestSchemaVersion)
	}
	return &m, nil
}

// metricsCounters extracts the counter map of an embedded metrics snapshot.
func (m *Manifest) metricsCounters() map[string]int64 {
	if len(m.Metrics) == 0 {
		return nil
	}
	var snap struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.Unmarshal(m.Metrics, &snap); err != nil {
		return nil
	}
	return snap.Counters
}

// sortedKeys returns the union of both maps' keys, sorted.
func sortedKeys[V any](a, b map[string]V) []string {
	seen := map[string]bool{}
	for k := range a {
		seen[k] = true
	}
	for k := range b {
		seen[k] = true
	}
	keys := make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
