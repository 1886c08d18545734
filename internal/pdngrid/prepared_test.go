package pdngrid

import (
	"math"
	"testing"

	"voltstack/internal/circuit"
)

// bitsEq compares floats bitwise, so even a sign-of-zero or last-ulp drift
// between a reused and a cold engine fails loudly.
func bitsEq(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

func sliceBitsEq(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bitsEq(a[i], b[i]) {
			return false
		}
	}
	return true
}

// sameResult asserts two Results are bit-identical in every field.
func sameResult(t *testing.T, label string, want, got *Result) {
	t.Helper()
	fail := func(field string) {
		t.Fatalf("%s: field %s differs", label, field)
	}
	switch {
	case !bitsEq(want.MaxIRDropFrac, got.MaxIRDropFrac):
		fail("MaxIRDropFrac")
	case !bitsEq(want.MaxRiseFrac, got.MaxRiseFrac):
		fail("MaxRiseFrac")
	case want.WorstLayer != got.WorstLayer:
		fail("WorstLayer")
	case !sliceBitsEq(want.PadCurrents, got.PadCurrents):
		fail("PadCurrents")
	case !sliceBitsEq(want.TSVCurrents, got.TSVCurrents):
		fail("TSVCurrents")
	case !bitsEq(want.InputPower, got.InputPower):
		fail("InputPower")
	case !bitsEq(want.LoadPower, got.LoadPower):
		fail("LoadPower")
	case !bitsEq(want.ConverterLoss, got.ConverterLoss):
		fail("ConverterLoss")
	case !bitsEq(want.WireLoss, got.WireLoss):
		fail("WireLoss")
	case !bitsEq(want.Efficiency, got.Efficiency):
		fail("Efficiency")
	case !sliceBitsEq(want.ConverterCurrents, got.ConverterCurrents):
		fail("ConverterCurrents")
	case !bitsEq(want.MaxConverterCurrent, got.MaxConverterCurrent):
		fail("MaxConverterCurrent")
	case want.OverLimit != got.OverLimit:
		fail("OverLimit")
	case want.SolverIterations != got.SolverIterations:
		t.Fatalf("%s: SolverIterations %d vs %d", label, want.SolverIterations, got.SolverIterations)
	case !bitsEq(want.SolverResidual, got.SolverResidual):
		fail("SolverResidual")
	case want.TotalSolverIterations != got.TotalSolverIterations:
		t.Fatalf("%s: TotalSolverIterations %d vs %d", label, want.TotalSolverIterations, got.TotalSolverIterations)
	}
	if len(want.TSVLayers) != len(got.TSVLayers) {
		fail("TSVLayers")
	}
	for i := range want.TSVLayers {
		if want.TSVLayers[i] != got.TSVLayers[i] {
			fail("TSVLayers")
		}
	}
	if len(want.CellVoltages) != len(got.CellVoltages) {
		fail("CellVoltages")
	}
	for l := range want.CellVoltages {
		if !sliceBitsEq(want.CellVoltages[l], got.CellVoltages[l]) {
			fail("CellVoltages")
		}
	}
}

// energyImbalance is the relative power-accounting residual of a result:
// input power minus load power and every loss, over input power.
func energyImbalance(r *Result) float64 {
	return math.Abs(r.InputPower-r.LoadPower-r.ConverterLoss-r.WireLoss) / r.InputPower
}

// TestSolverKindsMatchSparseND holds every solver kind to two references
// that share no code with it: the nested-dissection sparse Cholesky solve
// of the same PDN (every cell voltage within 1e-7 V) and energy
// conservation (input power = load power + losses to 1e-10 relative).
func TestSolverKindsMatchSparseND(t *testing.T) {
	cfgs := map[string]Config{
		"regular": regularCfg(3, SparseTSV()),
		"stacked": vsCfg(3, 4),
	}
	kinds := []circuit.SolverKind{
		circuit.Auto, circuit.PCGIC0, circuit.PCGJacobi, circuit.PCGAMG,
	}
	acts := InterleavedActivities(3, 16, 0.5)
	for name, cfg := range cfgs {
		cfg.Solve = circuit.SolveOptions{Solver: circuit.DirectSparseND}
		ref := mustSolve(t, cfg, acts)
		if e := energyImbalance(ref); e > 1e-10 {
			t.Errorf("%s sparse-ND: energy imbalance %.3g", name, e)
		}
		for _, kind := range kinds {
			cfg.Solve = circuit.SolveOptions{Solver: kind}
			got := mustSolve(t, cfg, acts)
			var worst float64
			for l := range ref.CellVoltages {
				for c, v := range ref.CellVoltages[l] {
					worst = math.Max(worst, math.Abs(got.CellVoltages[l][c]-v))
				}
			}
			if worst > 1e-7 {
				t.Errorf("%s kind %d: cell voltages %.3g V from sparse-ND", name, kind, worst)
			}
			if e := energyImbalance(got); e > 1e-10 {
				t.Errorf("%s kind %d: energy imbalance %.3g", name, kind, e)
			}
		}
	}
}

// TestPreparedEngineReuseAcrossActivityPatterns drives one PDN through a
// sequence of different activity patterns, for the direct kind and for
// IC(0)-PCG. Every solve after the first hits the cached engine, whose
// results must not depend on what was solved before: each must be
// bit-identical to a solve on a pristine PDN.
func TestPreparedEngineReuseAcrossActivityPatterns(t *testing.T) {
	patterns := [][][]float64{
		InterleavedActivities(3, 16, 0.5),
		UniformActivities(3, 16, 1),
		InterleavedActivities(3, 16, 0.9),
		InterleavedActivities(3, 16, 0.5), // repeat of the first
	}
	for _, kind := range []circuit.SolverKind{circuit.DirectSparseND, circuit.PCGIC0} {
		cfg := vsCfg(3, 4)
		cfg.Solve = circuit.SolveOptions{Solver: kind, Tol: 1e-10}
		p, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i, acts := range patterns {
			got, err := p.Solve(acts)
			if err != nil {
				t.Fatalf("kind %d pattern %d: %v", kind, i, err)
			}
			want := mustSolve(t, cfg, acts) // pristine PDN, cold engine
			sameResult(t, "reuse", want, got)
		}
	}
}

// TestPreparedRegularReuse covers the regular (no-converter) architecture's
// engine reuse, where only load values change between solves.
func TestPreparedRegularReuse(t *testing.T) {
	cfg := regularCfg(3, SparseTSV())
	cfg.Solve = circuit.SolveOptions{Solver: circuit.DirectSparseND}
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, act := range []float64{1, 0.25, 1} {
		acts := UniformActivities(3, 16, act)
		got, err := p.Solve(acts)
		if err != nil {
			t.Fatal(err)
		}
		want := mustSolve(t, cfg, acts)
		sameResult(t, "regular-reuse", want, got)
	}
}

// TestPreparedConcurrentSolves hammers one PDN from several goroutines
// (exercising the engine take/put-back path) and checks every result is
// bit-identical to a serial reference. Run under -race this also proves the
// cache handoff is data-race free.
func TestPreparedConcurrentSolves(t *testing.T) {
	cfg := vsCfg(3, 2)
	cfg.Solve = circuit.SolveOptions{Solver: circuit.PCGIC0, Tol: 1e-10}
	acts := InterleavedActivities(3, 16, 0.5)
	want := mustSolve(t, cfg, acts)
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	results := make([]*Result, workers)
	errs := make([]error, workers)
	done := make(chan int, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			results[w], errs[w] = p.Solve(acts)
			done <- w
		}(w)
	}
	for i := 0; i < workers; i++ {
		<-done
	}
	for w := 0; w < workers; w++ {
		if errs[w] != nil {
			t.Fatalf("worker %d: %v", w, errs[w])
		}
		sameResult(t, "concurrent", want, results[w])
	}
}
