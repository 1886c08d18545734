package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"slices"

	"voltstack/internal/core"
	"voltstack/internal/parallel"
)

// coreLayers are the experiments with a per-layer metric of their own:
// the ones that take most of a coarse `vsexplore -exp all`. The rest are
// summed as core.other.
var coreLayers = []string{
	"fig5a", "fig5b", "fig6", "fig8", "headlines", "thermal",
	"ext-transient", "ext-decap-split", "ext-trace-noise", "ext-scaling",
	"ext-electrothermal", "ext-thermal-em", "ext-em-mc",
}

// headlineBands are the ranges the paper's headline claims must land in,
// with the value the paper reports.
var headlineBands = []struct {
	name     string
	lo, hi   float64
	paper    float64
	getValue func(*core.Headlines) float64
}{
	{"C4 gap at 8 layers", 4.3, 5.3, 5, func(h *core.Headlines) float64 { return h.C4GapAt8Layers }},
	{"regular Few-TSV degradation", 0.75, 0.90, 0.84, func(h *core.Headlines) float64 { return h.RegTSVDegradation }},
	{"V-S excess IR drop at 65% (% Vdd)", 0.5, 1.2, 0.75, func(h *core.Headlines) float64 { return h.DeltaIRAt65Pct }},
	{"crossover imbalance", 0.45, 0.60, 0.50, func(h *core.Headlines) float64 { return h.CrossoverImbalance }},
}

// preparePaper sets up paper-coarse: the named experiments on the 16x16
// mesh, run concurrently on a GOMAXPROCS-sized pool exactly as
// `vsexplore -exp all -coarse` runs them.
func preparePaper(seed int64, experiments []string) (roundFunc, error) {
	s := core.NewStudy().Coarse()
	s.Seed = seed
	pool := parallel.NewPool(0)
	return func(rec *recorder) (*Round, error) {
		var headlineErr float64
		outs, err := parallel.Map(context.Background(), pool, experiments, func(_ int, name string) (string, error) {
			layer := "core.other"
			if slices.Contains(coreLayers, name) {
				layer = "core." + name
			}
			var out string
			rec.op(layer, name, func() error {
				var err error
				if name == "headlines" {
					out, headlineErr, err = runHeadlines(s)
				} else {
					out, err = core.RunExperiment(s, name, false)
				}
				if err == nil && out == "" {
					err = fmt.Errorf("empty output")
				}
				return err
			})
			return out, nil
		})
		if err != nil {
			return nil, err
		}
		r := rec.round(pool.Workers())
		h := sha256.New()
		for _, out := range outs {
			fmt.Fprintln(h, out)
		}
		r.Digest = hex.EncodeToString(h.Sum(nil))[:16]
		r.Notes = append(r.Notes, fmt.Sprintf("output_digest %s", r.Digest))
		if headlineErr > 0 {
			r.Notes = append(r.Notes, fmt.Sprintf("headline_err_pct %.2f", headlineErr))
		}
		return r, nil
	}, nil
}

// runHeadlines runs the headlines experiment as the registry does, through
// Study.Headlines and RenderHeadlines, so the numbers can be checked
// against the paper's bands. It returns the rendered text and the mean
// relative error against the paper's values, in percent.
func runHeadlines(s *core.Study) (string, float64, error) {
	h, err := s.Headlines()
	if err != nil {
		return "", 0, err
	}
	var sum float64
	for _, b := range headlineBands {
		v := b.getValue(h)
		if !(v >= b.lo && v <= b.hi) {
			return "", 0, fmt.Errorf("%s = %.3g, outside [%g, %g]", b.name, v, b.lo, b.hi)
		}
		sum += math.Abs(v-b.paper) / b.paper
	}
	return core.RenderHeadlines(h), 100 * sum / float64(len(headlineBands)), nil
}
