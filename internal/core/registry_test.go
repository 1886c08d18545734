package core

import (
	"strings"
	"testing"

	"voltstack/internal/telemetry"
)

// The canonical order must cover every registered driver exactly once,
// and every CSV runner must shadow a text runner.
func TestExperimentRegistryConsistent(t *testing.T) {
	seen := map[string]bool{}
	for _, name := range ExperimentNames() {
		if seen[name] {
			t.Errorf("duplicate experiment %q in canonical order", name)
		}
		seen[name] = true
		if !IsExperiment(name) {
			t.Errorf("ordered experiment %q has no text runner", name)
		}
	}
	if len(seen) != len(textRunners) {
		t.Errorf("canonical order lists %d experiments, registry has %d", len(seen), len(textRunners))
	}
	for _, name := range CSVExperimentNames() {
		if !IsExperiment(name) {
			t.Errorf("CSV experiment %q has no text runner", name)
		}
		if !HasCSV(name) {
			t.Errorf("HasCSV(%q) = false for a listed CSV experiment", name)
		}
	}
}

func TestRunExperimentErrors(t *testing.T) {
	s := NewStudy().Coarse()
	if _, err := RunExperiment(s, "nope", false); err == nil || !strings.Contains(err.Error(), "unknown experiment") {
		t.Errorf("unknown experiment err = %v", err)
	}
	if _, err := RunExperiment(s, "thermal", true); err == nil || !strings.Contains(err.Error(), "no CSV form") {
		t.Errorf("csv-less experiment err = %v", err)
	}
}

// table1/table2 run in microseconds; pin that the registry path renders
// the same bytes as calling the driver directly.
func TestRunExperimentMatchesDirect(t *testing.T) {
	s := NewStudy().Coarse()
	got, err := RunExperiment(s, "table1", false)
	if err != nil {
		t.Fatal(err)
	}
	if want := RenderTable1(s.Table1()); got != want {
		t.Errorf("registry table1 differs from direct render:\n%s\nvs\n%s", got, want)
	}
}

// TestNoCacheInstruments: core imports rescache only to key results and
// builds no cache, so an experiment run's metrics carry no rescache_
// instrument.
func TestNoCacheInstruments(t *testing.T) {
	if _, err := RunExperiment(NewStudy().Coarse(), "table1", false); err != nil {
		t.Fatal(err)
	}
	snap := telemetry.Default().Snapshot()
	var names []string
	for n := range snap.Counters {
		names = append(names, n)
	}
	for n := range snap.Gauges {
		names = append(names, n)
	}
	for n := range snap.Histograms {
		names = append(names, n)
	}
	for _, n := range names {
		if strings.HasPrefix(n, "rescache_") {
			t.Errorf("metrics carry %s, but no cache was built", n)
		}
	}
}
