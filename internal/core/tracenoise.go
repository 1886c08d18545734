package core

import (
	"fmt"
	"sort"
	"strings"

	"voltstack/internal/pdngrid"
	"voltstack/internal/workload"
)

// ExtTraceNoiseResult is the time-domain noise study: instead of a single
// worst-case pattern, the V-S PDN is driven by Markov phase traces of the
// Parsec mix and the resulting droop distribution is reported — the
// quasi-static generalization of the paper's statistical sampling.
type ExtTraceNoiseResult struct {
	Steps int
	// Droop distribution over the trace, % Vdd.
	P50, P95, Max float64
	// MaxConvMA is the worst converter current seen along the trace.
	MaxConvMA float64
	// OverLimitSteps counts steps where some converter exceeded rating.
	OverLimitSteps int
	// RegularWorstPct is the regular Dense PDN's worst-case line for
	// comparison.
	RegularWorstPct float64
	// FracBelowRegular is the fraction of time the V-S noise stays below
	// the regular PDN's worst case.
	FracBelowRegular float64
}

// ExtTraceNoise runs the quasi-static trace study on the 8-layer V-S PDN
// (8 conv/core, Few TSV) against the regular Dense worst case.
func (s *Study) ExtTraceNoise(steps int) (*ExtTraceNoiseResult, error) {
	if steps < 1 {
		return nil, fmt.Errorf("core: need at least 1 trace step")
	}
	layers := s.MaxLayers
	cores := s.Chip.NumCores()

	traces, err := s.Workloads().TraceMatrix(layers, cores, steps, s.Seed, workload.TraceOptions{})
	if err != nil {
		return nil, err
	}
	p, err := s.VoltageStackedPDN(layers, 8, pdngrid.FewTSV(), 0.5)
	if err != nil {
		return nil, err
	}

	res := &ExtTraceNoiseResult{Steps: steps}
	droops := make([]float64, 0, steps)
	for _, acts := range traces {
		r, err := p.Solve(acts)
		if err != nil {
			return nil, err
		}
		droops = append(droops, 100*r.MaxIRDropFrac)
		if ma := 1000 * r.MaxConverterCurrent; ma > res.MaxConvMA {
			res.MaxConvMA = ma
		}
		if r.OverLimit {
			res.OverLimitSteps++
		}
	}
	sort.Float64s(droops)
	q := func(f float64) float64 { return droops[int(f*float64(len(droops)-1))] }
	res.P50, res.P95, res.Max = q(0.5), q(0.95), droops[len(droops)-1]

	res.RegularWorstPct, err = s.uniformMaxIRPct(s.regularConfig(layers, pdngrid.DenseTSV(), 0.5))
	if err != nil {
		return nil, err
	}
	below := 0
	for _, d := range droops {
		if d < res.RegularWorstPct {
			below++
		}
	}
	res.FracBelowRegular = float64(below) / float64(len(droops))
	return res, nil
}

// RenderExtTraceNoise formats the trace study.
func RenderExtTraceNoise(r *ExtTraceNoiseResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Extension: time-domain noise under Markov phase traces (%d steps, 8-layer V-S, 8 conv/core)\n", r.Steps)
	fmt.Fprintf(&b, "  V-S max IR drop: p50 %.2f%%, p95 %.2f%%, max %.2f%% Vdd\n", r.P50, r.P95, r.Max)
	fmt.Fprintf(&b, "  worst converter along the trace: %.1f mA (%d/%d steps over rating)\n",
		r.MaxConvMA, r.OverLimitSteps, r.Steps)
	fmt.Fprintf(&b, "  regular Dense worst case: %.2f%% Vdd; V-S stays below it %.0f%% of the time\n",
		r.RegularWorstPct, 100*r.FracBelowRegular)
	b.WriteString("  -> real phase behavior rarely aligns into the coherent worst-case pattern of\n")
	b.WriteString("     Fig. 6; the V-S PDN's typical (p95) noise sits well inside the regular\n")
	b.WriteString("     PDN's always-on worst case\n")
	return b.String()
}
