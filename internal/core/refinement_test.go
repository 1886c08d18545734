package core

import (
	"fmt"
	"math"
	"testing"

	"voltstack/internal/pdngrid"
)

// slopeSignChanges counts how often w turns from rising to falling or
// back, skipping flat samples.
func slopeSignChanges(w []float64) int {
	n, last := 0, 0.0
	for k := 1; k < len(w); k++ {
		d := w[k] - w[k-1]
		if d == 0 {
			continue
		}
		if last != 0 && (d > 0) != (last > 0) {
			n++
		}
		last = d
	}
	return n
}

// TestTransientStepRefinement holds every transient number vsexplore
// prints to a run over the same window at a quarter of the step: the
// three ext-transient runs and the four ext-decap-split splits on the
// coarse mesh. Each first droop must lie within 0.01% Vdd of the refined
// run's, and each window-end sample within 0.15% Vdd; the latter is a
// sample of a ringing waveform, so the step's phase error dominates it.
// The worst-layer waveform must change slope sign no more often than the
// refined one's: the trapezoidal rule adds no sawtooth of its own.
func TestTransientStepRefinement(t *testing.T) {
	if testing.Short() {
		t.Skip("seven transient runs at 1,200 steps")
	}
	s := NewStudy().Coarse()
	base := pdngrid.DefaultTransient()
	runs, err := s.extTransientRuns(base)
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"ext-transient/regular", "ext-transient/vs", "ext-transient/regular-4x-decap"}
	for _, nConv := range decapSplitConverters {
		run, _, err := s.decapSplitRun(nConv, base)
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, run)
		names = append(names, fmt.Sprintf("ext-decap-split/%d-conv", nConv))
	}
	for i, run := range runs {
		t.Run(names[i], func(t *testing.T) {
			t.Parallel()
			fine := run.tc
			fine.DT /= 4
			fine.Steps *= 4
			got, err := run.pdn.SolveTransient(run.tc)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := run.pdn.SolveTransient(fine)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range []struct {
				what          string
				got, ref, tol float64
			}{
				{"first droop", got.WorstDroopFrac, ref.WorstDroopFrac, 0.01},
				{"window end", got.FinalDroopFrac, ref.FinalDroopFrac, 0.15},
			} {
				if d := 100 * math.Abs(c.got-c.ref); d > c.tol {
					t.Errorf("%s %.4f%% Vdd at %g s steps, %.4f%% at %g s: |Δ| %.4f, want <= %g",
						c.what, 100*c.got, run.tc.DT, 100*c.ref, fine.DT, d, c.tol)
				}
			}
			if g, r := slopeSignChanges(got.Droop), slopeSignChanges(ref.Droop); g > r {
				t.Errorf("waveform changes slope sign %d times, the refined run %d", g, r)
			}
		})
	}
}
