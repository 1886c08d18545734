// Fresh-vs-prepared benchmark pairs for the prepared-solve engine. Each
// scenario runs twice — once with Config.ForceFreshSolve (the historical
// rebuild-everything path) and once on the default prepared path — so the
// structure-caching/restamp/warm-start speedup is directly measurable:
//
//	go test -bench '^BenchmarkSolve' -run '^$' .
//	make bench-solve   # same, rendered into BENCH_solve.json
//
// The pairs cover the three hot paths the engine targets: a closed-loop
// pdngrid.Solve (outer iterations restamp converters only), a design-space
// sweep slice (every design solved twice: noise point + EM point), and the
// ext-em-mc experiment (one deep-stack solve feeding the Monte Carlo).
package voltstack_test

import (
	"context"
	"testing"

	"voltstack/internal/circuit"
	"voltstack/internal/explore"
	"voltstack/internal/pdngrid"
	"voltstack/internal/power"
	"voltstack/internal/sc"
)

// benchClosedLoopCfg is an 8-layer V-S stack on the coarse mesh with
// closed-loop converter control: every solve runs several outer passes, the
// scenario the prepared engine accelerates hardest.
func benchClosedLoopCfg(fresh bool) pdngrid.Config {
	conv := sc.Default28nm()
	conv.Cap = sc.Trench
	prm := pdngrid.DefaultParams()
	prm.GridNx, prm.GridNy = 16, 16
	return pdngrid.Config{
		Kind:              pdngrid.VoltageStacked,
		Layers:            8,
		Chip:              power.Example16Core(),
		Params:            prm,
		TSV:               pdngrid.FewTSV(),
		PadPowerFraction:  0.5,
		ConvertersPerCore: 4,
		Converter:         conv,
		Control:           sc.ClosedLoop{},
		Solve:             circuit.SolveOptions{Solver: circuit.PCGIC0},
		ForceFreshSolve:   fresh,
	}
}

func benchClosedLoop(b *testing.B, fresh bool) {
	benchClosedLoopWith(b, benchClosedLoopCfg(fresh))
}

func benchClosedLoopWith(b *testing.B, cfg pdngrid.Config) {
	p, err := pdngrid.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	acts := pdngrid.InterleavedActivities(cfg.Layers, cfg.Chip.NumCores(), 0.65)
	// Warm-up solve: the pair compares steady-state solve cost, so the
	// prepared side's one-time engine build is excluded from the timing.
	if _, err := p.Solve(acts); err != nil {
		b.Fatal(err)
	}
	var outer int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := p.Solve(acts)
		if err != nil {
			b.Fatal(err)
		}
		outer = r.OuterIterations
	}
	b.ReportMetric(float64(outer), "outer-passes")
}

// BenchmarkSolveClosedLoopFresh rebuilds, re-sorts and refactors the whole
// network on every outer pass of every solve.
func BenchmarkSolveClosedLoopFresh(b *testing.B) { benchClosedLoop(b, true) }

// BenchmarkSolveClosedLoopPrepared assembles once, then restamps converter
// values and warm-starts PCG on each outer pass.
func BenchmarkSolveClosedLoopPrepared(b *testing.B) { benchClosedLoop(b, false) }

// benchSweepSpace is a 16-point slice of the design space (2 TSV
// topologies x 2 pad fractions x (1 regular + 3 V-S counts)) on the coarse
// mesh, evaluated serially so the pair isolates the solve-path speedup from
// pool scaling.
func benchSweepSpace(fresh bool) explore.Space {
	s := explore.DefaultSpace()
	s.Params.GridNx, s.Params.GridNy = 16, 16
	s.PadFractions = []float64{0.25, 0.5}
	s.ConverterCount = []int{2, 4, 8}
	s.TSVs = s.TSVs[:2]
	s.Workers = 1
	s.ForceFreshSolve = fresh
	return s
}

func benchSweep(b *testing.B, fresh bool) {
	s := benchSweepSpace(fresh)
	var points float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := s.Run()
		if err != nil {
			b.Fatal(err)
		}
		points = float64(len(res.Points))
	}
	b.ReportMetric(points, "design-points")
}

// BenchmarkSolveExploreSweepFresh runs the sweep slice on the
// rebuild-everything path.
func BenchmarkSolveExploreSweepFresh(b *testing.B) { benchSweep(b, true) }

// BenchmarkSolveExploreSweepPrepared runs the same slice with each PDN's
// prepared engine reused between that design's noise and EM solves.
func BenchmarkSolveExploreSweepPrepared(b *testing.B) { benchSweep(b, false) }

func benchExtEMMC(b *testing.B, fresh bool) {
	s := coarse()
	s.ForceFreshSolve = fresh
	var gap float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := s.ExtEMMonteCarlo(context.Background(), 2000)
		if err != nil {
			b.Fatal(err)
		}
		gap = r.TSVGapPct
	}
	b.ReportMetric(gap, "tsv-mc-gap-%")
}

// BenchmarkSolveExtEMMCFresh runs the EM Monte Carlo cross-check with the
// deep-stack PDN solved on the fresh path.
func BenchmarkSolveExtEMMCFresh(b *testing.B) { benchExtEMMC(b, true) }

// BenchmarkSolveExtEMMCPrepared runs the same experiment on the prepared
// path.
func BenchmarkSolveExtEMMCPrepared(b *testing.B) { benchExtEMMC(b, false) }
