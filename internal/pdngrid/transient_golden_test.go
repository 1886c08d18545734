package pdngrid

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"voltstack/internal/units"
)

// Golden load-step waveforms: the transient solver's droop response for a
// table of representative scenarios, stored with %.17g. The comparison
// requires the sample count, worst layer and sample times to match exactly
// and every droop value (a fraction of Vdd) to within goldenDroopTol.
// Solver work — a different factorization or ordering — moves droops at
// the rounding level, far inside that tolerance; a model change moves them
// by far more. Bitwise run-to-run determinism is pinned separately by
// TestTransientConcurrentSolves. A deliberate model change regenerates the
// files with
//
//	go test ./internal/pdngrid -run TestTransientGoldenWaveforms -update
var updateTransientGolden = flag.Bool("update", false, "rewrite golden files under testdata/golden")

// goldenDroopTol bounds |Δdroop| against the golden files, as a fraction
// of Vdd.
const goldenDroopTol = 1e-9

// transientGoldenCases is the scenario table. Short runs and a coarse
// subsample keep the files small while still spanning the first droop,
// the ring-down, and the approach to the settled level.
var transientGoldenCases = []struct {
	name   string
	cfg    func() Config
	mutate func(*TransientConfig)
}{
	{
		name: "regular-2layer-dense",
		cfg:  func() Config { return regularCfg(2, DenseTSV()) },
	},
	{
		name: "regular-3layer-sparse",
		cfg:  func() Config { return regularCfg(3, SparseTSV()) },
	},
	{
		name: "vs-3layer",
		cfg:  func() Config { return vsCfg(3, 4) },
	},
	{
		name:   "regular-2layer-big-decap",
		cfg:    func() Config { return regularCfg(2, DenseTSV()) },
		mutate: func(tc *TransientConfig) { tc.DecapPerArea *= 5 },
	},
	{
		name:   "regular-2layer-gentle-step",
		cfg:    func() Config { return regularCfg(2, DenseTSV()) },
		mutate: func(tc *TransientConfig) { tc.RestActivity, tc.StepActivity = 0.5, 0.8 },
	},
}

// goldenTransientConfig is DefaultTransient over a 6 ns window.
func goldenTransientConfig() TransientConfig {
	tc := DefaultTransient()
	tc.Steps = stepsOver(tc, 6*units.Nanosecond)
	return tc
}

// formatWaveform renders a TransientResult as a stable text snapshot:
// scalar summary lines plus every 2nd waveform sample (200 ps apart at
// DefaultTransient's step), all floats printed with %.17g so the
// comparison is exact at the bit level.
func formatWaveform(r *TransientResult) []byte {
	var b strings.Builder
	fmt.Fprintf(&b, "worst_droop_frac %.17g\n", r.WorstDroopFrac)
	fmt.Fprintf(&b, "worst_layer %d\n", r.WorstLayer)
	fmt.Fprintf(&b, "final_droop_frac %.17g\n", r.FinalDroopFrac)
	fmt.Fprintf(&b, "samples %d\n", len(r.Times))
	for k := 0; k < len(r.Times); k += 2 {
		fmt.Fprintf(&b, "%.17g %.17g\n", r.Times[k], r.Droop[k])
	}
	return []byte(b.String())
}

// waveformSnapshot is a parsed formatWaveform snapshot.
type waveformSnapshot struct {
	worst, final  float64
	layer, n      int
	times, droops []float64
}

func parseWaveform(data []byte) (*waveformSnapshot, error) {
	lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if len(lines) < 4 {
		return nil, fmt.Errorf("snapshot has %d lines, want at least 4", len(lines))
	}
	w := &waveformSnapshot{}
	for i, f := range []struct {
		format string
		dst    any
	}{
		{"worst_droop_frac %g", &w.worst},
		{"worst_layer %d", &w.layer},
		{"final_droop_frac %g", &w.final},
		{"samples %d", &w.n},
	} {
		if _, err := fmt.Sscanf(lines[i], f.format, f.dst); err != nil {
			return nil, fmt.Errorf("line %d %q: %v", i+1, lines[i], err)
		}
	}
	for i, line := range lines[4:] {
		var tm, d float64
		if _, err := fmt.Sscanf(line, "%g %g", &tm, &d); err != nil {
			return nil, fmt.Errorf("line %d %q: %v", i+5, line, err)
		}
		w.times = append(w.times, tm)
		w.droops = append(w.droops, d)
	}
	return w, nil
}

// compareWaveforms lists every way got departs from want: counts, worst
// layer and times exactly, droops beyond goldenDroopTol.
func compareWaveforms(got, want *waveformSnapshot) []string {
	var diffs []string
	if got.n != want.n || len(got.times) != len(want.times) {
		return []string{fmt.Sprintf("samples %d (%d listed), want %d (%d listed)", got.n, len(got.times), want.n, len(want.times))}
	}
	if got.layer != want.layer {
		diffs = append(diffs, fmt.Sprintf("worst_layer %d, want %d", got.layer, want.layer))
	}
	droop := func(what string, g, w float64) {
		if math.Abs(g-w) > goldenDroopTol {
			diffs = append(diffs, fmt.Sprintf("%s %.17g, want %.17g (|Δ| %.3g)", what, g, w, math.Abs(g-w)))
		}
	}
	droop("worst_droop_frac", got.worst, want.worst)
	droop("final_droop_frac", got.final, want.final)
	for k := range want.times {
		if got.times[k] != want.times[k] {
			diffs = append(diffs, fmt.Sprintf("sample %d: time %.17g, want %.17g", k, got.times[k], want.times[k]))
		}
		droop(fmt.Sprintf("sample %d (t=%.3g) droop", k, want.times[k]), got.droops[k], want.droops[k])
	}
	return diffs
}

func TestTransientGoldenWaveforms(t *testing.T) {
	for _, tc := range transientGoldenCases {
		t.Run(tc.name, func(t *testing.T) {
			p, err := New(tc.cfg())
			if err != nil {
				t.Fatal(err)
			}
			trc := goldenTransientConfig()
			if tc.mutate != nil {
				tc.mutate(&trc)
			}
			r, err := p.SolveTransient(trc)
			if err != nil {
				t.Fatal(err)
			}
			got := formatWaveform(r)
			path := filepath.Join("testdata", "golden", "transient-"+tc.name+".txt")
			if *updateTransientGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("wrote %s (%d bytes)", path, len(got))
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file %s — run `go test ./internal/pdngrid -run TestTransientGoldenWaveforms -update` (%v)", path, err)
			}
			gw, err := parseWaveform(got)
			if err != nil {
				t.Fatalf("parse rendered waveform: %v", err)
			}
			ww, err := parseWaveform(want)
			if err != nil {
				t.Fatalf("parse %s: %v", path, err)
			}
			for _, d := range compareWaveforms(gw, ww) {
				t.Errorf("%s drifted from golden waveform: %s", tc.name, d)
			}
		})
	}
}

// TestTransientConcurrentSolves exercises SolveTransient from parallel
// goroutines against one PDN (run under -race in CI). The transient path
// assembles a fresh netlist per call, so concurrent runs must neither race
// nor perturb each other's waveforms.
func TestTransientConcurrentSolves(t *testing.T) {
	p, err := New(regularCfg(2, DenseTSV()))
	if err != nil {
		t.Fatal(err)
	}
	tc := goldenTransientConfig()
	tc.Steps = stepsOver(tc, 1.5*units.Nanosecond)
	ref, err := p.SolveTransient(tc)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 4
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r, err := p.SolveTransient(tc)
			if err != nil {
				errs[g] = err
				return
			}
			if !bytes.Equal(formatWaveform(r), formatWaveform(ref)) {
				errs[g] = fmt.Errorf("goroutine %d: waveform diverged from serial reference", g)
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}
