package core

import (
	"context"
	"fmt"
	"strings"

	"voltstack/internal/parallel"
	"voltstack/internal/pdngrid"
)

// DecapSplitRow is one way of spending a fixed per-core silicon budget:
// some on SC converters (which absorb DC imbalance) and the rest on
// trench decap (which absorbs di/dt).
type DecapSplitRow struct {
	Converters    int
	DecapAreaPct  float64 // % of core area spent on decap
	DecapPerMM2   float64 // resulting decap density (nF/mm²) incl. baseline
	DCNoisePct    float64 // DC IR drop at the evaluation imbalance
	FirstDroopPct float64 // transient first droop under the load step
}

// ExtDecapSplitResult sweeps the split of a fixed budget.
type ExtDecapSplitResult struct {
	BudgetPct    float64 // per-core area budget (% of core)
	ImbalancePct float64
	Rows         []DecapSplitRow
}

// decapSplitBudget is the fixed per-core regulation area, in converters:
// the full 8-converter allocation. decapSplitConverters lists the
// converters per core of each split.
const decapSplitBudget = 8

var decapSplitConverters = []int{8, 6, 4, 2}

// decapSplitRun is the split that gives nConv converters per core their
// share of the budget and spends the spare core area on trench decap: the
// 4-layer V-S PDN with nConv converters, and base with that decap added.
// spare is the decap's area per core.
func (s *Study) decapSplitRun(nConv int, base pdngrid.TransientConfig) (run transientRun, spare float64, err error) {
	const layers = 4
	convArea := s.Converter.Area()
	spare = decapSplitBudget*convArea - float64(nConv)*convArea
	// Spare area becomes trench decap spread over the core.
	extraDecap := spare * s.Converter.Cap.Density() / s.Chip.Core.Area // F/m² of die
	run.tc = base
	run.tc.DecapPerArea += extraDecap
	run.pdn, err = s.VoltageStackedPDN(layers, nConv, pdngrid.FewTSV(), 0.5)
	return run, spare, err
}

// ExtDecapSplit holds the V-S design's regulation area budget fixed
// (8 converters' worth, ~24 % of a core) and sweeps how much of it goes
// to converters versus trench decoupling capacitance, evaluating both
// noise mechanisms: DC imbalance noise and transient load-step droop.
// The stacks are kept at 4 layers so the transient solves stay fast, and
// the four splits run concurrently on the study's pool.
func (s *Study) ExtDecapSplit(steps int) (*ExtDecapSplitResult, error) {
	if steps < 1 {
		return nil, fmt.Errorf("core: need at least 1 transient step")
	}
	const imbalance = 0.65
	coreArea := s.Chip.Core.Area
	res := &ExtDecapSplitResult{
		BudgetPct:    100 * decapSplitBudget * s.Converter.Area() / coreArea,
		ImbalancePct: 100 * imbalance,
	}
	base := pdngrid.DefaultTransient()
	base.Steps = steps

	// The four splits are independent runs; each row lands at its index.
	rows, err := parallel.Map(context.Background(), s.pool(), decapSplitConverters, func(_ int, nConv int) (DecapSplitRow, error) {
		run, spare, err := s.decapSplitRun(nConv, base)
		if err != nil {
			return DecapSplitRow{}, err
		}
		dc, err := s.solveInterleaved(run.pdn, imbalance)
		if err != nil {
			return DecapSplitRow{}, err
		}
		tr, err := s.droops(run)
		if err != nil {
			return DecapSplitRow{}, err
		}
		return DecapSplitRow{
			Converters:    nConv,
			DecapAreaPct:  100 * spare / coreArea,
			DecapPerMM2:   run.tc.DecapPerArea * 1e9 / 1e6,
			DCNoisePct:    100 * dc.MaxIRDropFrac,
			FirstDroopPct: 100 * tr.first,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	res.Rows = rows
	return res, nil
}

// RenderExtDecapSplit formats the budget-split sweep.
func RenderExtDecapSplit(r *ExtDecapSplitResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Extension: converter-vs-decap split of a fixed %.0f%% core budget (4 layers, %.0f%% imbalance)\n",
		r.BudgetPct, r.ImbalancePct)
	b.WriteString("  converters  decap-area  decap-density  DC noise  first droop\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %10d %10.1f%% %11.1f nF/mm² %7.2f%% %11.2f%%\n",
			row.Converters, row.DecapAreaPct, row.DecapPerMM2, row.DCNoisePct, row.FirstDroopPct)
	}
	b.WriteString("  -> the two noise mechanisms pull opposite ways: converters fight DC\n")
	b.WriteString("     imbalance, decap fights di/dt; the best split depends on which dominates\n")
	b.WriteString("     the workload\n")
	return b.String()
}
