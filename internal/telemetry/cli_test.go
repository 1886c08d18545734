package telemetry

import (
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// cleanupGlobals undoes the process-wide gates Flags.Init flips so later
// tests (and TestGlobalDisabledByDefault in particular) see the boot state.
func cleanupGlobals(t *testing.T) {
	t.Cleanup(func() {
		Disable()
		DisableTracing()
		DisableProgress()
		SetPostmortemDir("")
	})
}

func TestInitNoFlags(t *testing.T) {
	cleanupGlobals(t)
	f := &Flags{}
	flush, err := f.Init()
	if err != nil {
		t.Fatal(err)
	}
	if Enabled() {
		t.Error("registry enabled with no flags set")
	}
	if err := flush(); err != nil {
		t.Errorf("flush: %v", err)
	}
	if err := flush(); err != nil {
		t.Errorf("second flush not a no-op: %v", err)
	}
}

func TestInitUnwritableCPUProfile(t *testing.T) {
	cleanupGlobals(t)
	f := &Flags{CPUProfile: filepath.Join(t.TempDir(), "no", "such", "dir", "cpu.out")}
	flush, err := f.Init()
	if err == nil {
		flush()
		t.Fatal("Init accepted an unwritable -cpuprofile path")
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
}

func TestInitAddressInUse(t *testing.T) {
	cleanupGlobals(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("cannot listen in this environment: %v", err)
	}
	defer ln.Close()

	f := &Flags{
		Serve:      ln.Addr().String(),
		CPUProfile: filepath.Join(t.TempDir(), "cpu.out"),
	}
	flush, err := f.Init()
	if err == nil {
		flush()
		t.Fatal("Init bound an already-bound -serve address")
	}
	if f.server != nil {
		t.Error("failed Init left its server registered")
	}
	if err := flush(); err != nil {
		t.Errorf("flush after failed Init: %v", err)
	}
	// The undo stack must have stopped the CPU profile: a fresh Init with
	// profiling must succeed (StartCPUProfile errors if one is running).
	f2 := &Flags{CPUProfile: filepath.Join(t.TempDir(), "cpu2.out")}
	flush2, err := f2.Init()
	if err != nil {
		t.Fatalf("CPU profile leaked by failed Init: %v", err)
	}
	if err := flush2(); err != nil {
		t.Errorf("flush: %v", err)
	}
}

// TestInitServeEndpoints drives the live endpoints end to end, twice in the
// same process: the second Init pins that pprof handlers live on a private
// mux (a DefaultServeMux registration would panic on the second round) and
// that flush really released the first listener. /statusz is gone: the
// run's convergence record is in its manifest.
func TestInitServeEndpoints(t *testing.T) {
	cleanupGlobals(t)
	if _, err := net.Listen("tcp", "127.0.0.1:0"); err != nil {
		t.Skipf("cannot listen in this environment: %v", err)
	}
	for round := 0; round < 2; round++ {
		f := &Flags{Serve: "127.0.0.1:0"}
		flush, err := f.Init()
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		addr := f.ServeAddr()
		if addr == "" {
			t.Fatalf("round %d: no bound address", round)
		}

		NewCounter("cli_test_probe_total").Add(1)

		body := httpGet(t, "http://"+addr+"/metrics")
		if !strings.Contains(body, "cli_test_probe_total") {
			t.Errorf("round %d: /metrics missing live counter:\n%s", round, body)
		}
		body = httpGet(t, "http://"+addr+"/healthz")
		if !strings.Contains(body, `"status":"ok"`) {
			t.Errorf("round %d: /healthz = %q", round, body)
		}
		resp, err := http.Get("http://" + addr + "/statusz")
		if err != nil {
			t.Fatalf("round %d: GET /statusz: %v", round, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("round %d: /statusz answered %d, want 404", round, resp.StatusCode)
		}

		if err := flush(); err != nil {
			t.Fatalf("round %d: flush: %v", round, err)
		}
		if _, err := http.Get("http://" + addr + "/healthz"); err == nil {
			t.Errorf("round %d: server still answering after flush", round)
		}
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
	rec := &ConvergenceReport{Kind: "pcg", Iterations: math.MaxInt32, Converged: true}
	RecordSolverHealth(rec)
	if err := flush(); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"metrics.json", "metrics.json.prom", "manifest.json"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("missing dump %s: %v", name, err)
		}
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
	// The metrics dumps are registered outputs and must carry hashes.
	for _, out := range m.Outputs {
		if out.Name == "metrics" && (out.SHA256 == "" || out.Missing) {
			t.Errorf("metrics output not hashed: %+v", out)
		}
	}
}

func httpGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read: %v", url, err)
	}
	return string(b)
}
