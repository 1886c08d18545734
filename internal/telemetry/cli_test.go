package telemetry

import (
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// cleanupGlobals undoes the process-wide gates Flags.Init flips so later
// tests see the boot state.
func cleanupGlobals(t *testing.T) {
	t.Cleanup(func() {
		DisableTracing()
		DisableProgress()
	})
}

func TestInitNoFlags(t *testing.T) {
	cleanupGlobals(t)
	f := &Flags{}
	flush, err := f.Init()
	if err != nil {
		t.Fatal(err)
	}
	if stdTracer.Load() != nil {
		t.Error("tracer enabled with no flags set")
	}
	if err := flush(); err != nil {
		t.Errorf("flush: %v", err)
	}
	if err := flush(); err != nil {
		t.Errorf("second flush not a no-op: %v", err)
	}
}

// TestInitUnwritableCPUProfile: a -cpuprofile that cannot be created
// fails Init with an error naming the flag, and the unwind releases the
// manifest's stdout capture, which Init started first.
func TestInitUnwritableCPUProfile(t *testing.T) {
	cleanupGlobals(t)
	stdout := os.Stdout
	dir := t.TempDir()
	f := &Flags{
		CPUProfile: filepath.Join(dir, "no", "such", "dir", "cpu.out"),
		Manifest:   filepath.Join(dir, "manifest.json"),
	}
	flush, err := f.Init()
	if err == nil {
		flush()
		t.Fatal("Init accepted an unwritable -cpuprofile path")
	}
	if os.Stdout != stdout {
		os.Stdout = stdout
		t.Error("failed Init left os.Stdout captured")
	}
	if f.RunManifest() != nil {
		t.Error("failed Init left its manifest registered")
	}
	if !strings.Contains(err.Error(), "cpuprofile") {
		t.Errorf("error does not name the failing flag: %v", err)
	}
	if flush == nil {
		t.Fatal("flush must be non-nil even on error")
	}
	if err := flush(); err != nil {
		t.Errorf("flush after failed Init: %v", err)
	}
	if _, err := os.Stat(f.Manifest); !os.IsNotExist(err) {
		t.Errorf("failed Init wrote a manifest (stat: %v)", err)
	}
}

func TestInitDumpsAndManifest(t *testing.T) {
	cleanupGlobals(t)
	dir := t.TempDir()
	f := &Flags{
		Metrics:  filepath.Join(dir, "metrics.json"),
		Manifest: filepath.Join(dir, "manifest.json"),
	}
	flush, err := f.Init()
	if err != nil {
		t.Fatal(err)
	}
	if f.RunManifest() == nil {
		t.Fatal("RunManifest nil with -manifest set")
	}
	f.RunManifest().AddSeed("study", 42)
	// The manifest carries the process's convergence record; this report
	// is harder than any a solve in this process can offer.
	rec := &ConvergenceReport{Kind: "pcg", Iterations: math.MaxInt32}
	RecordSolverHealth(rec)
	if err := flush(); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"metrics.json", "manifest.json"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("missing dump %s: %v", name, err)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "metrics.json.prom")); !os.IsNotExist(err) {
		t.Errorf("-metrics wrote a Prometheus dump next to the JSON (stat: %v)", err)
	}
	m, err := LoadManifest(f.Manifest)
	if err != nil {
		t.Fatal(err)
	}
	if m.Seeds["study"] != 42 {
		t.Errorf("seed = %d, want 42", m.Seeds["study"])
	}
	if m.Convergence == nil || !reflect.DeepEqual(*m.Convergence, *rec) {
		t.Errorf("manifest convergence = %+v, want the process record %+v", m.Convergence, rec)
	}
	// The metrics dump is a registered output and must carry a hash.
	var names []string
	for _, out := range m.Outputs {
		names = append(names, out.Name)
		if out.Name == "metrics" && (out.SHA256 == "" || out.Missing) {
			t.Errorf("metrics output not hashed: %+v", out)
		}
	}
	if want := []string{"stdout", "metrics"}; !reflect.DeepEqual(names, want) {
		t.Errorf("manifest outputs = %v, want %v", names, want)
	}
}
