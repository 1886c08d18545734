package telemetry

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// TestManifestSchemaGolden pins schema version 1: the exact JSON field
// names and layout external tooling (cmd/vsreport, provenance archives)
// depends on. If this test fails after an intentional change, the change is
// a schema bump — raise ManifestSchemaVersion and regenerate with -update.
func TestManifestSchemaGolden(t *testing.T) {
	m := &Manifest{
		Schema:      ManifestSchemaVersion,
		Binary:      "vsim",
		Args:        []string{"-layers", "8"},
		Flags:       map[string]string{"layers": "8"},
		Seeds:       map[string]int64{"study": 12345},
		GoVersion:   "go1.24.0",
		OS:          "linux",
		Arch:        "amd64",
		VCSRevision: "deadbeef",
		VCSTime:     "2026-01-02T03:04:05Z",
		VCSModified: true,
		StartTime:   "2026-01-02T03:04:06Z",
		WallSeconds: 1.5,
		Metrics:     json.RawMessage(`{"counters":{"pdngrid_solves_total":2}}`),
		Outputs: []ManifestOutput{
			{Name: "stdout", SHA256: "aa", Bytes: 10},
			{Name: "metrics", Path: "m.json", SHA256: "bb", Bytes: 20},
			{Name: "trace", Path: "t.json", Missing: true},
		},
		ExitError: "boom",
	}
	got, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')

	golden := filepath.Join("testdata", "manifest_v1.golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if string(got) != string(want) {
		t.Errorf("manifest schema drifted from golden (schema bump needed?):\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestManifestStdoutCapture(t *testing.T) {
	// Point the "real" stdout at a scratch file so the tee's pass-through
	// side is observable and the test output stays clean.
	scratch, err := os.Create(filepath.Join(t.TempDir(), "stdout.txt"))
	if err != nil {
		t.Fatal(err)
	}
	orig := os.Stdout
	os.Stdout = scratch
	defer func() { os.Stdout = orig }()

	m := NewManifest("test")
	if err := m.CaptureStdout(); err != nil {
		t.Fatal(err)
	}
	const payload = "line one\nline two\n"
	fmt.Fprint(os.Stdout, payload)
	m.ReleaseStdout()

	if os.Stdout != scratch {
		t.Fatal("ReleaseStdout did not restore stdout")
	}
	passed, err := os.ReadFile(scratch.Name())
	if err != nil {
		t.Fatal(err)
	}
	if string(passed) != payload {
		t.Errorf("tee altered the stream: %q", passed)
	}
	sum := sha256.Sum256([]byte(payload))
	want := hex.EncodeToString(sum[:])
	var stdout *ManifestOutput
	for i := range m.Outputs {
		if m.Outputs[i].Name == "stdout" {
			stdout = &m.Outputs[i]
		}
	}
	if stdout == nil {
		t.Fatal("no stdout output recorded")
	}
	if stdout.SHA256 != want {
		t.Errorf("stdout hash = %s, want %s", stdout.SHA256, want)
	}
	if stdout.Bytes != int64(len(payload)) {
		t.Errorf("stdout bytes = %d, want %d", stdout.Bytes, len(payload))
	}
	// Idempotent.
	m.ReleaseStdout()
	if n := len(m.Outputs); n != 1 {
		t.Errorf("second ReleaseStdout appended: %d outputs", n)
	}
}

func TestManifestOutputHashing(t *testing.T) {
	dir := t.TempDir()
	data := []byte("artifact bytes")
	path := filepath.Join(dir, "out.csv")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	m := NewManifest("test")
	m.AddOutputFile("csv", path)
	m.AddOutputFile("ghost", filepath.Join(dir, "never-written.csv"))

	mpath := filepath.Join(dir, "manifest.json")
	if err := m.WriteFile(mpath); err != nil {
		t.Fatal(err)
	}
	got, err := LoadManifest(mpath)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	byName := map[string]ManifestOutput{}
	for _, o := range got.Outputs {
		byName[o.Name] = o
	}
	if o := byName["csv"]; o.SHA256 != hex.EncodeToString(sum[:]) || o.Bytes != int64(len(data)) {
		t.Errorf("csv output = %+v", o)
	}
	if o := byName["ghost"]; !o.Missing || o.SHA256 != "" {
		t.Errorf("ghost output not marked missing: %+v", o)
	}
	if got.Schema != ManifestSchemaVersion {
		t.Errorf("schema = %d", got.Schema)
	}
}

// TestManifestWriteFailureKeepsOld pins the atomic write: a manifest
// whose encoding fails must leave the earlier file at its path whole and
// no temp file beside it, because vsreport reads that file back.
func TestManifestWriteFailureKeepsOld(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.json")
	if err := NewManifest("test").WriteFile(path); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	bad := NewManifest("test")
	bad.Metrics = json.RawMessage("{")
	if err := bad.WriteFile(path); err == nil {
		t.Fatal("manifest with invalid metrics written without error")
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Errorf("failed write changed the manifest:\nbefore: %s\nafter:  %s", before, after)
	}
	if _, err := LoadManifest(path); err != nil {
		t.Errorf("earlier manifest no longer loads: %v", err)
	}
	if ents, _ := os.ReadDir(dir); len(ents) != 1 {
		t.Errorf("failed write left files behind: %v", ents)
	}
}

func TestLoadManifestRejectsNewerSchema(t *testing.T) {
	path := filepath.Join(t.TempDir(), "future.json")
	doc := fmt.Sprintf(`{"schema": %d, "binary": "x"}`, ManifestSchemaVersion+1)
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := LoadManifest(path)
	if err == nil {
		t.Fatal("newer schema accepted")
	}
	if !strings.Contains(err.Error(), "newer than supported") {
		t.Errorf("unexpected error: %v", err)
	}
}

func TestManifestNilSafe(t *testing.T) {
	var m *Manifest
	m.AddSeed("s", 1)
	m.AddOutputFile("n", "p")
	m.SetExitError(fmt.Errorf("x"))
	if err := m.CaptureStdout(); err != nil {
		t.Fatal(err)
	}
	m.ReleaseStdout()
	if err := m.WriteFile(filepath.Join(t.TempDir(), "nil.json")); err != nil {
		t.Fatal(err)
	}
}
