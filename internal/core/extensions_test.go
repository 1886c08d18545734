package core

import (
	"math"
	"strings"
	"testing"

	"voltstack/internal/pdngrid"
	"voltstack/internal/power"
	"voltstack/internal/units"
)

func TestExtTransientVSAdvantage(t *testing.T) {
	r, err := coarseStudy().ExtTransient()
	if err != nil {
		t.Fatal(err)
	}
	// The stack's off-chip current step is ~1/N of the regular PDN's, so
	// its Ldi/dt first droop must be far smaller.
	if r.VSFirstDroopPct >= r.RegularFirstDroopPct/2 {
		t.Errorf("V-S first droop %.2f%% should be well below regular %.2f%%",
			r.VSFirstDroopPct, r.RegularFirstDroopPct)
	}
	if r.RegularFirstDroopPct <= 0 || r.RegularFirstDroopPct > 50 {
		t.Errorf("implausible regular droop %.2f%%", r.RegularFirstDroopPct)
	}
	// More decap helps the regular design.
	if r.RegularDroop4xPct >= r.RegularDroop1xPct {
		t.Errorf("4x decap should reduce droop: %.2f%% -> %.2f%%",
			r.RegularDroop1xPct, r.RegularDroop4xPct)
	}
}

func TestExtConvertersSCWinsAtScale(t *testing.T) {
	rows := coarseStudy().ExtConverters()
	if len(rows) == 0 {
		t.Fatal("no comparison rows")
	}
	heavy := rows[len(rows)-1]
	if heavy.SCEff <= heavy.BuckEff {
		t.Errorf("SC %.3f should beat the integrated buck %.3f at heavy load",
			heavy.SCEff, heavy.BuckEff)
	}
	if heavy.BuckAreaMM2/heavy.SCAreaMM2 < 10 {
		t.Errorf("buck/SC area ratio %.1f should be an order of magnitude",
			heavy.BuckAreaMM2/heavy.SCAreaMM2)
	}
}

func TestExtSchedulingPolicies(t *testing.T) {
	r, err := coarseStudy().ExtScheduling()
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]SchedPolicyResult{}
	for _, p := range r.Policies {
		byName[p.Policy] = p
	}
	rnd, aware, banded := byName["random"], byName["stack-aware"], byName["layer-banded"]

	// The paper's suggestion: stack-aware placement cuts adjacent-layer
	// imbalance and converter stress relative to oblivious placement.
	if aware.MeanImbalance >= rnd.MeanImbalance {
		t.Errorf("stack-aware imbalance %.3f should beat random %.3f",
			aware.MeanImbalance, rnd.MeanImbalance)
	}
	if aware.MaxConvMA >= rnd.MaxConvMA {
		t.Errorf("stack-aware converter stress %.1f mA should beat random %.1f mA",
			aware.MaxConvMA, rnd.MaxConvMA)
	}
	if aware.MaxIRPct > rnd.MaxIRPct*1.05 {
		t.Errorf("stack-aware IR %.2f%% should not exceed random %.2f%%",
			aware.MaxIRPct, rnd.MaxIRPct)
	}
	// The cautionary result: a coherent vertical gradient accumulates
	// rail offsets and is far worse than either other policy.
	if banded.MaxIRPct <= 2*rnd.MaxIRPct {
		t.Errorf("layer-banded IR %.2f%% should blow past random %.2f%% (coherent gradient)",
			banded.MaxIRPct, rnd.MaxIRPct)
	}
	if !banded.OverLimit {
		t.Error("layer-banded should exceed the lean converter rating")
	}
	if rnd.OverLimit || aware.OverLimit {
		t.Error("random/stack-aware should stay within the rating")
	}
}

func TestExtensionRenderers(t *testing.T) {
	s := coarseStudy()
	tr, err := s.ExtTransient()
	if err != nil {
		t.Fatal(err)
	}
	if out := RenderExtTransient(tr); !strings.Contains(out, "first droop") {
		t.Error("transient render incomplete")
	}
	if out := RenderExtConverters(s.ExtConverters()); !strings.Contains(out, "Buck eff") {
		t.Error("converter render incomplete")
	}
	sr, err := s.ExtScheduling()
	if err != nil {
		t.Fatal(err)
	}
	out := RenderExtScheduling(sr)
	for _, want := range []string{"random", "stack-aware", "layer-banded"} {
		if !strings.Contains(out, want) {
			t.Errorf("scheduling render missing %q", want)
		}
	}
}

func TestExtElectrothermalFixedPoint(t *testing.T) {
	s := coarseStudy()
	r8, err := s.ExtElectrothermal(8)
	if err != nil {
		t.Fatal(err)
	}
	if !r8.Converged {
		t.Error("8-layer coupling should converge (no runaway)")
	}
	// At 8 layers the hotspot sits above the 85 C characterization point,
	// so closing the loop amplifies leakage and raises the hotspot.
	if r8.CoupledHotspotC <= r8.UncoupledHotspotC {
		t.Errorf("coupled hotspot %.1f should exceed uncoupled %.1f at 8 layers",
			r8.CoupledHotspotC, r8.UncoupledHotspotC)
	}
	if r8.LeakageAmplification <= 1 {
		t.Errorf("8-layer leakage amplification = %.2f, want > 1", r8.LeakageAmplification)
	}
	// Shallow cool stacks run below 85 C: the coupled power is LOWER.
	r2, err := s.ExtElectrothermal(2)
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Converged {
		t.Error("2-layer coupling should converge")
	}
	if r2.CoupledHotspotC >= r2.UncoupledHotspotC {
		t.Errorf("cool 2-layer stack: coupled %.1f should be below uncoupled %.1f",
			r2.CoupledHotspotC, r2.UncoupledHotspotC)
	}
	if r2.LeakageAmplification >= 1 {
		t.Errorf("2-layer leakage amplification = %.2f, want < 1", r2.LeakageAmplification)
	}
	if _, err := s.ExtElectrothermal(0); err == nil {
		t.Error("0 layers should error")
	}
}

func TestExtThermalEM(t *testing.T) {
	r, err := coarseStudy().ExtThermalEM()
	if err != nil {
		t.Fatal(err)
	}
	// The thermal gradient: bottom layer hottest, monotone toward the sink.
	for l := 1; l < len(r.LayerTempsC); l++ {
		if r.LayerTempsC[l] >= r.LayerTempsC[l-1] {
			t.Fatalf("layer temps should fall toward the sink: %v", r.LayerTempsC)
		}
	}
	// Hot conductors age faster than at the uniform 85 C point: both PDNs
	// take a real penalty (their critical conductors sit near the hot
	// bottom), of comparable size.
	if r.RegAwarePenalty < 1.3 || r.VSAwarePenalty < 1.3 {
		t.Errorf("aware penalties = %.2f / %.2f, want > 1.3",
			r.RegAwarePenalty, r.VSAwarePenalty)
	}
	// The paper's normalized V-S-over-regular ratio survives the
	// temperature refinement within a modest factor.
	uniformGap := r.VSUniform / r.RegUniform
	awareGap := r.VSAware / r.RegAware
	if awareGap < uniformGap/2 || awareGap > uniformGap*2 {
		t.Errorf("normalized gap shifted too much: %.2f vs %.2f", awareGap, uniformGap)
	}
}

func TestExtGuardband(t *testing.T) {
	r, err := coarseStudy().ExtGuardband()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.MaxDroopPct <= 0 || row.MaxDroopPct > 20 {
			t.Errorf("%s: droop %.2f%% implausible", row.Design, row.MaxDroopPct)
		}
		// The alpha-power model maps droop into at least as much
		// frequency loss, and the supply-raise power cost is about twice
		// the raise (V² scaling).
		if row.FreqLossPct < row.MaxDroopPct {
			t.Errorf("%s: freq loss %.2f%% below droop %.2f%%", row.Design, row.FreqLossPct, row.MaxDroopPct)
		}
		if row.PowerOverPct < 1.8*row.MaxDroopPct {
			t.Errorf("%s: power overhead %.2f%% below 2x droop", row.Design, row.PowerOverPct)
		}
		if row.PDNEfficiency <= 0 || row.PDNEfficiency >= 1 {
			t.Errorf("%s: efficiency %g", row.Design, row.PDNEfficiency)
		}
	}
	// At the 65% average the two equal-area designs are within ~2 points
	// of droop (the paper's 0.75% Vdd delta claim in cost terms).
	if d := r.Rows[1].MaxDroopPct - r.Rows[0].MaxDroopPct; d < 0 || d > 2.5 {
		t.Errorf("V-S minus regular droop = %.2f points, want within (0, 2.5]", d)
	}
}

func TestExtTraceNoise(t *testing.T) {
	r, err := coarseStudy().ExtTraceNoise(30)
	if err != nil {
		t.Fatal(err)
	}
	if !(r.P50 <= r.P95 && r.P95 <= r.Max) {
		t.Errorf("quantile ordering violated: %g %g %g", r.P50, r.P95, r.Max)
	}
	if r.P50 <= 0 || r.Max > 20 {
		t.Errorf("implausible droop distribution: %g..%g", r.P50, r.Max)
	}
	// The headline: realistic phase traces keep V-S noise inside the
	// regular worst case the vast majority of the time.
	if r.FracBelowRegular < 0.9 {
		t.Errorf("V-S below regular only %.0f%% of the time", 100*r.FracBelowRegular)
	}
	if r.OverLimitSteps > r.Steps/10 {
		t.Errorf("converters over rating on %d/%d steps", r.OverLimitSteps, r.Steps)
	}
	if _, err := coarseStudy().ExtTraceNoise(0); err == nil {
		t.Error("0 steps should error")
	}
}

func TestExtScalingPowerDeliveryWall(t *testing.T) {
	r, err := coarseStudy().ExtScaling()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) < 3 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	first, last := r.Rows[0], r.Rows[len(r.Rows)-1]
	// Volumetric cooling keeps every depth thermally feasible.
	for _, row := range r.Rows {
		if !row.ThermallyFeasible {
			t.Errorf("%d layers should be feasible under microchannel cooling (%.0f C)",
				row.Layers, row.HotspotC)
		}
	}
	// The regular PDN's stress scales with depth...
	if last.RegOffChipA < 2.5*first.RegOffChipA {
		t.Errorf("regular board current should scale ~3x from 8 to 24 layers: %g -> %g",
			first.RegOffChipA, last.RegOffChipA)
	}
	if last.RegMaxIRPct <= first.RegMaxIRPct || last.RegTSVLife >= first.RegTSVLife {
		t.Error("regular noise should grow and lifetime shrink with depth")
	}
	// ...while the stack's stays flat.
	if last.VSOffChipA > 1.2*first.VSOffChipA {
		t.Errorf("V-S board current should stay flat: %g -> %g", first.VSOffChipA, last.VSOffChipA)
	}
	if last.VSTSVLife < 0.9*first.VSTSVLife {
		t.Errorf("V-S lifetime should stay flat: %g -> %g", first.VSTSVLife, last.VSTSVLife)
	}
	if last.VSMaxIRPct > 5 {
		t.Errorf("24-layer V-S noise %.1f%% should stay small", last.VSMaxIRPct)
	}
}

func powerAlpha() power.AlphaPowerModel { return power.DefaultAlphaPower() }

func withinAbs(a, b, tol float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= tol
}

func TestExtDVFS(t *testing.T) {
	r, err := coarseStudy().ExtDVFS()
	if err != nil {
		t.Fatal(err)
	}
	// The scaled point sits between threshold and nominal, and power
	// matching at 65% imbalance needs a deep cut.
	if r.VddScaled <= 0.4 || r.VddScaled >= 1.0 {
		t.Errorf("scaled Vdd = %g", r.VddScaled)
	}
	if r.PerfLoss < 0.2 || r.PerfLoss > 0.6 {
		t.Errorf("perf loss = %g, want a deep near-threshold cut", r.PerfLoss)
	}
	// Check the (v, f) pair actually equalizes dynamic power.
	core := NewStudy().Chip.Core
	model := powerAlpha()
	scale := (r.VddScaled / core.Vdd) * (r.VddScaled / core.Vdd) * model.FreqScale(r.VddScaled, core.Vdd)
	if !withinAbs(scale, 0.35, 0.01) {
		t.Errorf("dynamic scale at DVFS point = %g, want 0.35", scale)
	}
	// Balancing erases the V-S noise; converters only tame it.
	if r.BalancedIRPct >= r.ConverterAltIRPct {
		t.Error("full balancing should beat the converter route on noise")
	}
	if r.ImbalancedIRPct <= r.ConverterAltIRPct {
		t.Error("the lean imbalanced design must be the noisiest")
	}
}

func TestExtDecapSplit(t *testing.T) {
	// A 10 ns window spans every split's first droop.
	r, err := coarseStudy().ExtDecapSplit(int(math.Round(10 * units.Nanosecond / pdngrid.DefaultTransient().DT)))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// Budget ≈ the 8-converter allocation (~24% of a core with trench caps).
	if r.BudgetPct < 20 || r.BudgetPct > 28 {
		t.Errorf("budget = %.1f%%", r.BudgetPct)
	}
	// Fewer converters -> worse DC noise; more decap -> smaller droop.
	for i := 1; i < len(r.Rows); i++ {
		if r.Rows[i].DCNoisePct <= r.Rows[i-1].DCNoisePct {
			t.Errorf("DC noise should grow as converters shrink: row %d", i)
		}
		if r.Rows[i].FirstDroopPct >= r.Rows[i-1].FirstDroopPct {
			t.Errorf("droop should shrink as decap grows: row %d", i)
		}
	}
	if _, err := coarseStudy().ExtDecapSplit(0); err == nil {
		t.Error("0 steps should error")
	}
}

func TestNewExtensionRenderers(t *testing.T) {
	// Cheap content checks: every extension renderer names its key rows.
	et := &ExtElectrothermalResult{Layers: 8, UncoupledHotspotC: 95, CoupledHotspotC: 96.5, LeakageAmplification: 1.07, Converged: true, Iterations: 3}
	if out := RenderExtElectrothermal([]*ExtElectrothermalResult{et}); !strings.Contains(out, "96.5") {
		t.Error("electrothermal render incomplete")
	}
	runaway := *et
	runaway.Converged = false
	if out := RenderExtElectrothermal([]*ExtElectrothermalResult{&runaway}); !strings.Contains(out, "NOT CONVERGED") {
		t.Error("runaway flag missing")
	}
	tem := &ExtThermalEMResult{Layers: 8, LayerTempsC: []float64{94, 72}, RegUniform: 0.24, RegAware: 0.12, VSUniform: 1, VSAware: 0.5, RegAwarePenalty: 2, VSAwarePenalty: 2}
	if out := RenderExtThermalEM(tem); !strings.Contains(out, "94C") || !strings.Contains(out, "2.0x penalty") {
		t.Error("thermal-EM render incomplete")
	}
	gb := &ExtGuardbandResult{ImbalancePct: 65, Rows: []GuardbandRow{{Design: "regular", MaxDroopPct: 4.9, FreqLossPct: 5.1, PowerOverPct: 10.6, PDNEfficiency: 0.95}}}
	if out := RenderExtGuardband(gb); !strings.Contains(out, "regular") || !strings.Contains(out, "10.6") {
		t.Error("guardband render incomplete")
	}
	tn := &ExtTraceNoiseResult{Steps: 10, P50: 1.4, P95: 2.2, Max: 2.6, MaxConvMA: 18, RegularWorstPct: 5, FracBelowRegular: 1}
	if out := RenderExtTraceNoise(tn); !strings.Contains(out, "p95 2.20%") {
		t.Error("trace-noise render incomplete")
	}
	sc := &ExtScalingResult{Rows: []ScalingRow{{Layers: 24, HotspotC: 34, RegOffChipA: 182, RegMaxPadMA: 830, RegMaxIRPct: 37, RegTSVLife: 0.11, VSOffChipA: 8.3, VSMaxIRPct: 2.1, VSTSVLife: 0.99}}}
	if out := RenderExtScaling(sc); !strings.Contains(out, "182") || !strings.Contains(out, "830") {
		t.Error("scaling render incomplete")
	}
	dv := &ExtDVFSResult{ImbalancePct: 65, VddScaled: 0.72, FreqScaled: 0.67, PerfLoss: 0.33, ImbalancedIRPct: 26.7, BalancedIRPct: 0.95, ConverterAltIRPct: 5.8, ConverterAltAreaPct: 17.8}
	if out := RenderExtDVFS(dv); !strings.Contains(out, "0.72 V") {
		t.Error("DVFS render incomplete")
	}
	ds := &ExtDecapSplitResult{BudgetPct: 24, ImbalancePct: 65, Rows: []DecapSplitRow{{Converters: 8, DCNoisePct: 3.7, FirstDroopPct: 4.5, DecapPerMM2: 4}}}
	if out := RenderExtDecapSplit(ds); !strings.Contains(out, "decap-density") {
		t.Error("decap-split render incomplete")
	}
}
