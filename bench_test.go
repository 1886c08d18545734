// Package voltstack_test benchmarks the full experiment pipeline: one
// benchmark per table and figure of the paper's evaluation (each runs the
// code that regenerates that artifact; cmd/vsexplore prints the actual
// rows), plus ablation benchmarks for the design choices called out in
// DESIGN.md (solver selection, mesh resolution, converter placement).
//
// Benchmarks report the figure's headline quantity as a custom metric so
// regressions in the *numbers*, not just the speed, are visible.
package voltstack_test

import (
	"context"
	"math"
	"testing"

	"voltstack/internal/circuit"
	"voltstack/internal/core"
	"voltstack/internal/em"
	"voltstack/internal/explore"
	"voltstack/internal/pdngrid"
	"voltstack/internal/sc"
	"voltstack/internal/spice"
	"voltstack/internal/telemetry"
)

// coarse returns a study on the 16x16 mesh. Benchmarks of drivers that
// solve PDN points call it inside the b.N loop: a study solves each
// distinct point once, so a reused study would time memo hits from the
// second iteration on.
func coarse() *core.Study { return core.NewStudy().Coarse() }

// BenchmarkTable1Params regenerates the PDN parameter table.
func BenchmarkTable1Params(b *testing.B) {
	s := coarse()
	for i := 0; i < b.N; i++ {
		if rows := s.Table1(); len(rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkTable2TSVTopologies regenerates the TSV topology table.
func BenchmarkTable2TSVTopologies(b *testing.B) {
	s := coarse()
	var overhead float64
	for i := 0; i < b.N; i++ {
		rows := s.Table2()
		overhead = rows[0].OverheadPct
	}
	b.ReportMetric(overhead, "dense-overhead-%")
}

// BenchmarkFig3aClosedLoopValidation runs the closed-loop converter
// model-vs-simulation sweep.
func BenchmarkFig3aClosedLoopValidation(b *testing.B) {
	s := coarse()
	var worst float64
	for i := 0; i < b.N; i++ {
		pts, err := s.Fig3a()
		if err != nil {
			b.Fatal(err)
		}
		worst = 0
		for _, p := range pts {
			if d := math.Abs(p.ModelEff - p.SimEff); d > worst {
				worst = d
			}
		}
	}
	b.ReportMetric(100*worst, "max-model-vs-sim-pts")
}

// BenchmarkFig3bOpenLoopValidation runs the open-loop sweep.
func BenchmarkFig3bOpenLoopValidation(b *testing.B) {
	s := coarse()
	var worst float64
	for i := 0; i < b.N; i++ {
		pts, err := s.Fig3b()
		if err != nil {
			b.Fatal(err)
		}
		worst = 0
		for _, p := range pts {
			if d := math.Abs(p.ModelEff - p.SimEff); d > worst {
				worst = d
			}
		}
	}
	b.ReportMetric(100*worst, "max-model-vs-sim-pts")
}

// BenchmarkFig5aTSVLifetime regenerates the TSV EM-lifetime figure.
func BenchmarkFig5aTSVLifetime(b *testing.B) {
	var gap float64
	for i := 0; i < b.N; i++ {
		s := coarse()
		fig, err := s.Fig5a()
		if err != nil {
			b.Fatal(err)
		}
		series := map[string][]float64{}
		for _, sr := range fig.Series {
			series[sr.Label] = sr.Values
		}
		last := len(fig.Layers) - 1
		gap = series["V-S PDN, Few TSV"][last] / series["Reg. PDN, Few TSV"][last]
	}
	b.ReportMetric(gap, "vs-over-reg-8layer")
}

// BenchmarkFig5bC4Lifetime regenerates the C4 EM-lifetime figure.
func BenchmarkFig5bC4Lifetime(b *testing.B) {
	var gap float64
	for i := 0; i < b.N; i++ {
		s := coarse()
		fig, err := s.Fig5b()
		if err != nil {
			b.Fatal(err)
		}
		series := map[string][]float64{}
		for _, sr := range fig.Series {
			series[sr.Label] = sr.Values
		}
		last := len(fig.Layers) - 1
		gap = series["V-S PDN (25% Power C4)"][last] / series["Reg. PDN (25% Power C4)"][last]
	}
	b.ReportMetric(gap, "vs-over-reg-8layer")
}

// BenchmarkFig6NoiseSweep regenerates the IR-drop-vs-imbalance figure.
func BenchmarkFig6NoiseSweep(b *testing.B) {
	var vs100 float64
	for i := 0; i < b.N; i++ {
		s := coarse()
		fig, err := s.Fig6()
		if err != nil {
			b.Fatal(err)
		}
		vals := fig.VS[8]
		vs100 = vals[len(vals)-1]
	}
	b.ReportMetric(vs100, "vs8conv-ir-at-100pct-%Vdd")
}

// BenchmarkFig7WorkloadBoxplot regenerates the Parsec imbalance study.
func BenchmarkFig7WorkloadBoxplot(b *testing.B) {
	s := coarse()
	var avg float64
	for i := 0; i < b.N; i++ {
		fig := s.Fig7()
		avg = fig.AverageMaxImbalance
	}
	b.ReportMetric(100*avg, "avg-max-imbalance-%")
}

// BenchmarkFig8Efficiency regenerates the power-efficiency figure.
func BenchmarkFig8Efficiency(b *testing.B) {
	var margin float64
	for i := 0; i < b.N; i++ {
		s := coarse()
		fig, err := s.Fig8()
		if err != nil {
			b.Fatal(err)
		}
		last := len(fig.Imbalances) - 1
		margin = fig.VS[8][last] - fig.RegularSC[last]
	}
	b.ReportMetric(100*margin, "vs-margin-at-100pct-pts")
}

// BenchmarkThermalFeasibility runs the air-cooled stack depth check.
func BenchmarkThermalFeasibility(b *testing.B) {
	s := coarse()
	var layers float64
	for i := 0; i < b.N; i++ {
		tc, err := s.Thermal()
		if err != nil {
			b.Fatal(err)
		}
		layers = float64(tc.MaxLayersUnder100C)
	}
	b.ReportMetric(layers, "max-layers-under-100C")
}

// --- ablations -----------------------------------------------------------

// solveVS8 builds and solves the standard 8-layer V-S scenario with the
// given solver and mesh.
func solveVS8(b *testing.B, solver circuit.SolverKind, grid int) *pdngrid.Result {
	b.Helper()
	s := core.NewStudy()
	s.Params.GridNx, s.Params.GridNy = grid, grid
	conv := sc.Default28nm()
	conv.Cap = sc.Trench
	p, err := pdngrid.New(pdngrid.Config{
		Kind:              pdngrid.VoltageStacked,
		Layers:            8,
		Chip:              s.Chip,
		Params:            s.Params,
		TSV:               pdngrid.FewTSV(),
		PadPowerFraction:  0.5,
		ConvertersPerCore: 8,
		Converter:         conv,
		Solve:             circuit.SolveOptions{Solver: solver},
	})
	if err != nil {
		b.Fatal(err)
	}
	r, err := p.Solve(pdngrid.InterleavedActivities(8, 16, 0.65))
	if err != nil {
		b.Fatal(err)
	}
	return r
}

// BenchmarkAblationSolverSparseND measures the nested-dissection sparse
// Cholesky direct solver.
func BenchmarkAblationSolverSparseND(b *testing.B) {
	for i := 0; i < b.N; i++ {
		solveVS8(b, circuit.DirectSparseND, 16)
	}
}

// BenchmarkAblationMesh32 measures the full-resolution mesh solve.
func BenchmarkAblationMesh32(b *testing.B) {
	var ir float64
	for i := 0; i < b.N; i++ {
		ir = solveVS8(b, circuit.Auto, 32).MaxIRDropFrac
	}
	b.ReportMetric(100*ir, "ir-%Vdd")
}

// BenchmarkAblationMesh16 measures the coarse-mesh solve for comparison.
func BenchmarkAblationMesh16(b *testing.B) {
	var ir float64
	for i := 0; i < b.N; i++ {
		ir = solveVS8(b, circuit.Auto, 16).MaxIRDropFrac
	}
	b.ReportMetric(100*ir, "ir-%Vdd")
}

// BenchmarkAblationConverterPlacement sweeps converters-per-core, the
// placement-granularity tradeoff of Sec. 5.2.
func BenchmarkAblationConverterPlacement(b *testing.B) {
	var spread float64
	for i := 0; i < b.N; i++ {
		s := coarse()
		pts2, err := s.VSSweep(2, []float64{0.4})
		if err != nil {
			b.Fatal(err)
		}
		pts8, err := s.VSSweep(8, []float64{0.4})
		if err != nil {
			b.Fatal(err)
		}
		spread = pts2[0].MaxIRPct - pts8[0].MaxIRPct
	}
	b.ReportMetric(spread, "ir-spread-2v8conv-%Vdd")
}

// BenchmarkSpiceCell measures the switch-level transient simulator at one
// operating point (the inner loop of the Fig. 3 validation).
func BenchmarkSpiceCell(b *testing.B) {
	cell := spice.CellFromParams(sc.Default28nm(), 2.0)
	for i := 0; i < b.N; i++ {
		if _, err := cell.Simulate(0.05, spice.SimOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtTransient runs the RLC load-step comparison (extension).
func BenchmarkExtTransient(b *testing.B) {
	s := coarse()
	var margin float64
	for i := 0; i < b.N; i++ {
		r, err := s.ExtTransient()
		if err != nil {
			b.Fatal(err)
		}
		margin = r.RegularFirstDroopPct / r.VSFirstDroopPct
	}
	b.ReportMetric(margin, "reg-over-vs-first-droop")
}

// BenchmarkExtConverters runs the SC-vs-buck comparison (extension).
func BenchmarkExtConverters(b *testing.B) {
	s := coarse()
	var gap float64
	for i := 0; i < b.N; i++ {
		rows := s.ExtConverters()
		last := rows[len(rows)-1]
		gap = 100 * (last.SCEff - last.BuckEff)
	}
	b.ReportMetric(gap, "sc-minus-buck-pts-at-90mA")
}

// BenchmarkExtScheduling runs the three-policy scheduling study (extension).
func BenchmarkExtScheduling(b *testing.B) {
	s := coarse()
	var stress float64
	for i := 0; i < b.N; i++ {
		r, err := s.ExtScheduling()
		if err != nil {
			b.Fatal(err)
		}
		stress = r.Policies[0].MaxConvMA / r.Policies[1].MaxConvMA
	}
	b.ReportMetric(stress, "random-over-aware-conv-stress")
}

// BenchmarkExtElectrothermal runs the leakage-temperature fixed point on
// the 8-layer stack (extension).
func BenchmarkExtElectrothermal(b *testing.B) {
	s := coarse()
	var amp float64
	for i := 0; i < b.N; i++ {
		r, err := s.ExtElectrothermal(8)
		if err != nil {
			b.Fatal(err)
		}
		amp = r.LeakageAmplification
	}
	b.ReportMetric(amp, "leakage-amplification-8layer")
}

// BenchmarkExtTraceNoise runs the quasi-static Markov-trace noise study
// (extension).
func BenchmarkExtTraceNoise(b *testing.B) {
	var p95 float64
	for i := 0; i < b.N; i++ {
		s := coarse()
		r, err := s.ExtTraceNoise(30)
		if err != nil {
			b.Fatal(err)
		}
		p95 = r.P95
	}
	b.ReportMetric(p95, "vs-p95-droop-%Vdd")
}

// BenchmarkExtGuardband runs the alpha-power guardband comparison
// (extension).
func BenchmarkExtGuardband(b *testing.B) {
	s := coarse()
	var delta float64
	for i := 0; i < b.N; i++ {
		r, err := s.ExtGuardband()
		if err != nil {
			b.Fatal(err)
		}
		delta = r.Rows[1].FreqLossPct - r.Rows[0].FreqLossPct
	}
	b.ReportMetric(delta, "vs-extra-freq-loss-pts")
}

// BenchmarkExtThermalEM runs the thermally-aware EM study (extension).
func BenchmarkExtThermalEM(b *testing.B) {
	s := coarse()
	var penalty float64
	for i := 0; i < b.N; i++ {
		r, err := s.ExtThermalEM()
		if err != nil {
			b.Fatal(err)
		}
		penalty = r.RegAwarePenalty
	}
	b.ReportMetric(penalty, "reg-thermal-penalty-x")
}

// BenchmarkDesignSpaceExploration runs the Pareto exploration (extension).
func BenchmarkDesignSpaceExploration(b *testing.B) {
	space := explore.DefaultSpace()
	space.Params.GridNx, space.Params.GridNy = 16, 16
	space.PadFractions = []float64{0.5}
	space.TSVs = space.TSVs[:2]
	var front float64
	for i := 0; i < b.N; i++ {
		res, err := space.Run(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		front = float64(len(res.Pareto))
	}
	b.ReportMetric(front, "pareto-size")
}

// --- parallel vs. serial -------------------------------------------------
//
// Each pair runs the same fan-out once serially (Workers = 1) and once on
// the default pool (Workers = 0: GOMAXPROCS or VOLTSTACK_WORKERS), so the
// parallel speedup is directly measurable with
//
//	go test -bench 'Serial|Parallel' -run '^$'
//
// The results are identical in both modes — only the wall clock moves.

func benchFig5a(b *testing.B, workers int) {
	for i := 0; i < b.N; i++ {
		s := coarse()
		s.Workers = workers
		if _, err := s.Fig5a(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5aSerial is the single-worker baseline of the Fig. 5a
// scenario × layer grid (17 independent PDN solves).
func BenchmarkFig5aSerial(b *testing.B) { benchFig5a(b, 1) }

// BenchmarkFig5aParallel runs the same grid on the default worker pool.
func BenchmarkFig5aParallel(b *testing.B) { benchFig5a(b, 0) }

func benchExploreSweep(b *testing.B, workers int) {
	space := explore.DefaultSpace()
	space.Params.GridNx, space.Params.GridNy = 16, 16
	space.PadFractions = []float64{0.5}
	space.TSVs = space.TSVs[:2]
	space.Workers = workers
	var front float64
	for i := 0; i < b.N; i++ {
		res, err := space.Run(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		front = float64(len(res.Pareto))
	}
	b.ReportMetric(front, "pareto-size")
}

// BenchmarkExploreSweepSerial is the single-worker design-space sweep
// (10 design evaluations, each several PDN solves).
func BenchmarkExploreSweepSerial(b *testing.B) { benchExploreSweep(b, 1) }

// BenchmarkExploreSweepParallel runs the sweep on the default pool.
func BenchmarkExploreSweepParallel(b *testing.B) { benchExploreSweep(b, 0) }

func benchEMMonteCarlo(b *testing.B, workers int) {
	g := em.NewGroup(0.4)
	for i := 0; i < 400; i++ {
		g.AddT50(500 + 10*float64(i))
	}
	var mttf float64
	for i := 0; i < b.N; i++ {
		var err error
		mttf, err = g.SimulateMedianLifetimeWorkers(20000, 1, workers)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(mttf, "mc-median-lifetime")
}

// BenchmarkEMMonteCarloSerial draws 20k trials of a 400-conductor group
// on one worker.
func BenchmarkEMMonteCarloSerial(b *testing.B) { benchEMMonteCarlo(b, 1) }

// BenchmarkEMMonteCarloParallel splits the same trials across the
// default pool; the per-trial RNG streams keep the median bit-identical.
func BenchmarkEMMonteCarloParallel(b *testing.B) { benchEMMonteCarlo(b, 0) }

// BenchmarkAblationTSVAllocation sweeps the Table 2 TSV topologies on the
// regular PDN, the allocation-vs-noise tradeoff of Sec. 4.2.
func BenchmarkAblationTSVAllocation(b *testing.B) {
	s := core.NewStudy().Coarse()
	var spread float64
	for i := 0; i < b.N; i++ {
		irs := map[string]float64{}
		for _, tsv := range []pdngrid.TSVTopology{pdngrid.DenseTSV(), pdngrid.FewTSV()} {
			p, err := s.RegularPDN(8, tsv, 0.5)
			if err != nil {
				b.Fatal(err)
			}
			r, err := p.Solve(pdngrid.UniformActivities(8, 16, 1))
			if err != nil {
				b.Fatal(err)
			}
			irs[tsv.Name] = 100 * r.MaxIRDropFrac
		}
		spread = irs["Few"] - irs["Dense"]
	}
	b.ReportMetric(spread, "few-minus-dense-ir-%Vdd")
}

// --- telemetry overhead ---------------------------------------------------
//
// BenchmarkFig5aTelemetryOff / BenchmarkFig5aTelemetryOn run the fully
// instrumented Fig. 5a driver with the process telemetry registry in its
// default disabled state and with metrics collection enabled. The disabled
// path costs one atomic load per instrument call, so TelemetryOff must stay
// within 2% of the pre-instrumentation baseline — compare with
//
//	go test -bench 'Fig5aTelemetry' -run '^$' -count 5
//
// (representative run on a 2.70GHz Xeon: Off 1.40-1.50 s/op vs On
// 1.38-1.39 s/op — the pair is statistically indistinguishable; the
// instrumentation cost is lost in run-to-run noise).

func benchFig5aTelemetry(b *testing.B, enable bool) {
	if enable {
		telemetry.Enable()
		b.Cleanup(func() {
			telemetry.Disable()
			telemetry.Default().Reset()
		})
	}
	benchFig5a(b, 0)
}

// BenchmarkFig5aTelemetryOff measures the instrumented driver with the
// registry disabled (the default for library use).
func BenchmarkFig5aTelemetryOff(b *testing.B) { benchFig5aTelemetry(b, false) }

// BenchmarkFig5aTelemetryOn measures the same run with metrics recording
// enabled, bounding the full collection overhead.
func BenchmarkFig5aTelemetryOn(b *testing.B) { benchFig5aTelemetry(b, true) }
