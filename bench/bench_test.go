package main

import (
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestWorkloadsSmoke runs every workload at a tiny size, one untraced and
// one traced round each, and checks that each reports every metric, finite
// and with a unit, with no failed call or check.
func TestWorkloadsSmoke(t *testing.T) {
	vsserved := filepath.Join(t.TempDir(), "vsserved")
	if out, err := exec.Command("go", "build", "-o", vsserved, "voltstack/cmd/vsserved").CombinedOutput(); err != nil {
		t.Fatalf("build vsserved: %v\n%s", err, out)
	}
	inProcessRound := func(prepare func() (roundFunc, error)) func(bool) (*Round, error) {
		return func(traced bool) (*Round, error) {
			round, err := prepare()
			if err != nil {
				return nil, err
			}
			return round(newRecorder(traced))
		}
	}
	reqs := serveRequests(1, 10)
	work := t.TempDir()
	workloads := []struct {
		name  string
		round func(traced bool) (*Round, error)
	}{
		{"paper-coarse", inProcessRound(func() (roundFunc, error) {
			return preparePaper(1, []string{"table1", "fig3b", "fig7"})
		})},
		{"pdn-solve", inProcessRound(func() (roundFunc, error) {
			return preparePDN(1, pdnSize{meshes: []int{8}, layers: []int{2}, warm: 3, batch: 2})
		})},
		{"em-mc", inProcessRound(func() (roundFunc, error) {
			return prepareEM(1, emSize{grid: 8, trials: 500})
		})},
		{serveMixed, func(traced bool) (*Round, error) {
			return serveRound(vsserved, work, reqs, serveSize{requests: len(reqs), clients: 2}, traced)
		}},
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			var rounds []*Round
			for _, traced := range []bool{false, true} {
				r, err := w.round(traced)
				if err != nil {
					t.Fatal(err)
				}
				for _, e := range r.Errors {
					t.Errorf("round error: %s", e)
				}
				if len(r.Ops) == 0 {
					t.Fatal("round made no calls")
				}
				for _, op := range r.Ops {
					if op.Failed {
						t.Error("failed op")
					}
				}
				rounds = append(rounds, r)
			}
			if len(rounds[1].Spans) == 0 || len(rounds[0].Spans) != 0 {
				t.Errorf("spans: %d untraced, %d traced; want none untraced and some traced",
					len(rounds[0].Spans), len(rounds[1].Spans))
			}
			check := func(defs []metricDef, vals map[string]float64) {
				for _, d := range defs {
					v, ok := vals[d.name]
					if !ok || math.IsNaN(v) || math.IsInf(v, 0) || d.unit == "" {
						t.Errorf("metric %s = %v (present %v), unit %q", d.name, v, ok, d.unit)
					}
				}
			}
			check(endToEnd, endToEndValues(rounds, []float64{rounds[0].SetupS}))
			layers := perLayerValues(rounds[:1], rounds[1:])
			check(perLayer(), layers)
			if err := writeTrace(t.TempDir(), w.name, 1, rounds, layers); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestBenchmarkJSONMatches holds BENCHMARK.json's metric lists to the
// metrics the benchmark reports, name for name and unit for unit.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var doc struct {
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	compare := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", kind, len(got), len(want))
			return
		}
		for i, w := range want {
			if got[i].Name != w.name || got[i].Unit != w.unit {
				t.Errorf("%s %d: BENCHMARK.json has %s (%s), the benchmark reports %s (%s)",
					kind, i, got[i].Name, got[i].Unit, w.name, w.unit)
			}
		}
	}
	compare("end_to_end", doc.EndToEnd, endToEnd)
	compare("per_layer", doc.PerLayer, perLayer())
}
