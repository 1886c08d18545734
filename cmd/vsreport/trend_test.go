package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"voltstack/internal/server"
	"voltstack/internal/telemetry"
)

// sweepJob is an 8-layer one-point sweep on a mesh above the direct-solve
// threshold, so its solves run PCG and report iterations.
func sweepJob(grid int, pads float64) server.JobRequest {
	return server.JobRequest{Kind: server.KindSweep, Sweep: &server.SweepSpec{
		Layers:         8,
		PadFractions:   []float64{pads},
		ConverterCount: []int{4},
		TSVs:           []string{"dense"},
		GridNx:         grid,
	}}
}

// runJobs runs reqs one after another on a fresh manager journaling into
// stateDir, the way a vsserved process started on that directory would.
func runJobs(t *testing.T, stateDir string, reqs ...server.JobRequest) {
	t.Helper()
	mgr, err := server.NewManager(server.Config{StateDir: stateDir, MaxInFlight: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	for _, req := range reqs {
		j, err := mgr.Submit(req, telemetry.TraceContext{})
		if err != nil {
			t.Fatal(err)
		}
		<-j.Done()
		if st := j.Status(); st.State != server.StateDone {
			t.Fatalf("job %s: %s %s", st.ID, st.State, st.Error)
		}
	}
}

func metric(t *testing.T, g trendGroup, name string) trendMetric {
	t.Helper()
	for _, m := range g.Metrics {
		if m.Metric == name {
			return m
		}
	}
	t.Fatalf("group %s has no %s series: %+v", g.Group, name, g.Metrics)
	return trendMetric{}
}

// TestTrendStateDir reads trends from a state dir written by a real job
// manager. The same sweep before and after a manager restart is one group
// whose iterations and convergence record repeat exactly; a stats document
// journaled before jobs carried a convergence record counts toward
// iterations only; sweeps of different problems each form a group of
// their own, so a larger mesh never reads as a regression of a smaller
// one.
func TestTrendStateDir(t *testing.T) {
	t.Run("restart", func(t *testing.T) {
		dir := t.TempDir()
		runJobs(t, dir, sweepJob(24, 0.5))
		runJobs(t, dir, sweepJob(24, 0.5))
		rep, err := trend([]string{dir}, 1.2, 1.5)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Groups) != 1 || rep.Groups[0].Records != 2 {
			t.Fatalf("groups = %+v, want one group of 2 records", rep.Groups)
		}
		for _, name := range []string{"iterations", "cond_estimate", "reduction_factor"} {
			if m := metric(t, rep.Groups[0], name); m.Ratio != 1 {
				t.Errorf("%s ratio = %g (%g → %g), want 1", name, m.Ratio, m.Median, m.Latest)
			}
		}
		if rep.Regressed {
			t.Error("identical work flagged as a regression")
		}
	})

	t.Run("record without convergence", func(t *testing.T) {
		dir := t.TempDir()
		for range 3 {
			runJobs(t, dir, sweepJob(24, 0.5))
		}
		jobs, err := server.ReadJournal(dir)
		if err != nil {
			t.Fatal(err)
		}
		stripConvergence(t, filepath.Join(dir, "jobs", jobs[0].ID+".stats.json"))
		rep, err := trend([]string{dir}, 1.2, 1.5)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Groups) != 1 || rep.Groups[0].Records != 3 {
			t.Fatalf("groups = %+v, want one group of 3 records", rep.Groups)
		}
		for name, records := range map[string]int{"iterations": 3, "cond_estimate": 2} {
			if m := metric(t, rep.Groups[0], name); m.Records != records || m.Ratio != 1 {
				t.Errorf("%s: %d records at ratio %g, want %d at 1", name, m.Records, m.Ratio, records)
			}
		}
	})

	t.Run("different problems", func(t *testing.T) {
		dir := t.TempDir()
		runJobs(t, dir, sweepJob(24, 0.5), sweepJob(24, 0.25), sweepJob(48, 0.5))
		rep, err := trend([]string{dir}, 1.2, 1.5)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Records != 3 || len(rep.Groups) != 3 {
			t.Fatalf("%d records in %d groups, want 3 in 3: %+v", rep.Records, len(rep.Groups), rep.Groups)
		}
		if rep.Regressed {
			t.Error("a larger mesh flagged as a regression of a smaller one")
		}
	})
}

// stripConvergence rewrites a journaled stats document without its
// convergence record, as a build before the record wrote it.
func stripConvergence(t *testing.T, path string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if _, ok := doc["convergence"]; !ok {
		t.Fatalf("%s carries no convergence record to strip", path)
	}
	delete(doc, "convergence")
	if b, err = json.Marshal(doc); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// writeManifest writes a run manifest of vsim with the given -grid, start
// time and PCG iteration total. Each of extraFlags, "name" or
// "name=value", is recorded with that value (unset without one), the way
// a manifest records every flag its binary registered.
func writeManifest(t *testing.T, path, grid string, start time.Time, iterations int64, extraFlags ...string) {
	t.Helper()
	metrics, err := json.Marshal(telemetry.RegistrySnapshot{
		Counters: map[string]int64{"sparse_pcg_iterations_total": iterations},
	})
	if err != nil {
		t.Fatal(err)
	}
	m := telemetry.Manifest{
		Schema:    telemetry.ManifestSchemaVersion,
		Binary:    "vsim",
		Flags:     map[string]string{"grid": grid, "layers": "8", "manifest": path},
		StartTime: start.Format(time.RFC3339),
		Metrics:   metrics,
	}
	for _, f := range extraFlags {
		name, value, _ := strings.Cut(f, "=")
		m.Flags[name] = value
	}
	b, err := json.Marshal(&m)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestTrendManifests groups CLI runs by binary and work flags: the
// -manifest path differs between runs and is ignored, -grid splits the
// group, and an iterations jump within a group is a regression.
func TestTrendManifests(t *testing.T) {
	dir := t.TempDir()
	t0 := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	path := func(name string) string { return filepath.Join(dir, name) }
	writeManifest(t, path("a.json"), "16", t0, 400)
	writeManifest(t, path("b.json"), "16", t0.Add(time.Minute), 400)
	writeManifest(t, path("c.json"), "32", t0.Add(2*time.Minute), 900)

	// Given out of time order: the report orders records by start_time.
	rep, err := trend([]string{path("c.json"), path("b.json"), path("a.json")}, 1.2, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Groups) != 2 || rep.Groups[0].Records != 2 || rep.Groups[1].Records != 1 {
		t.Fatalf("groups = %+v, want -grid 16 (2 records) then -grid 32 (1)", rep.Groups)
	}
	if m := metric(t, rep.Groups[0], "iterations"); m.Ratio != 1 || rep.Regressed {
		t.Errorf("identical runs: ratio %g, regressed %v", m.Ratio, rep.Regressed)
	}

	writeManifest(t, path("d.json"), "16", t0.Add(3*time.Minute), 600)
	rep, err = trend([]string{path("a.json"), path("b.json"), path("d.json")}, 1.2, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	if m := metric(t, rep.Groups[0], "iterations"); !m.Regression || !rep.Regressed {
		t.Errorf("iterations 400 → 600 not flagged: %+v", m)
	}

	// Manifests whose convergence record still carries the retired
	// detector verdicts and AMG section load, and their records count.
	const oldConvergence = `,"convergence":{"kind":"pcg","n":900,"preconditioner":"amg",` +
		`"tol":1e-10,"max_iter":200,"iterations":40,"final_residual":1e-11,"converged":true,` +
		`"cond_estimate":12,"stagnation":true,"plateau":true,"precond_degradation":true,` +
		`"amg":{"levels":3,"operator_complexity":1.6,"grid_complexity":1.4,"cycle_reductions":[0.2,0.3]}}}`
	for i, name := range []string{"e.json", "f.json"} {
		writeManifest(t, path(name), "16", t0.Add(time.Duration(4+i)*time.Minute), 400)
		b, err := os.ReadFile(path(name))
		if err != nil {
			t.Fatal(err)
		}
		b = append(bytes.TrimSuffix(bytes.TrimSpace(b), []byte("}")), oldConvergence...)
		if err := os.WriteFile(path(name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	rep, err = trend([]string{path("a.json"), path("e.json"), path("f.json")}, 1.2, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Groups) != 1 || rep.Groups[0].Records != 3 {
		t.Fatalf("groups = %+v, want one group of 3 records", rep.Groups)
	}
	if m := metric(t, rep.Groups[0], "cond_estimate"); m.Records != 2 || m.Latest != 12 || m.Ratio != 1 {
		t.Errorf("cond_estimate of the old records = %+v, want 2 records at 12", m)
	}
}

// TestTrendRetiredFlags pins that a run recorded while -pprof, -events,
// -probes, -serve and -postmortem still existed stays in the group of an
// otherwise equal newer run, whatever their values: a new build still
// compares against old runs. Every manifest records every registered
// flag, so a run that never set -serve still recorded "serve".
func TestTrendRetiredFlags(t *testing.T) {
	dir := t.TempDir()
	t0 := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	old, cur := filepath.Join(dir, "old.json"), filepath.Join(dir, "new.json")
	writeManifest(t, cur, "16", t0.Add(time.Minute), 400)
	for _, retired := range [][]string{
		{"pprof", "events", "probes=true"},
		{"pprof", "events", "probes=false"},
		{"serve", "postmortem"},
		{"serve=localhost:6060", "postmortem=pm"},
	} {
		writeManifest(t, old, "16", t0, 400, retired...)
		rep, err := trend([]string{old, cur}, 1.2, 1.5)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Groups) != 1 || rep.Groups[0].Records != 2 {
			t.Fatalf("%v: groups = %+v, want one group of 2 records", retired, rep.Groups)
		}
	}
}

// TestTrendUnreadablePath pins that a path that cannot be read is an
// error (exit status 2), never an empty report.
func TestTrendUnreadablePath(t *testing.T) {
	dir := t.TempDir()
	garbage := filepath.Join(dir, "garbage.json")
	if err := os.WriteFile(garbage, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{filepath.Join(dir, "missing"), garbage, dir} {
		if _, err := trend([]string{p}, 1.2, 1.5); err == nil {
			t.Errorf("trend(%s) returned no error", p)
		}
	}
}
