package pdngrid

import (
	"math"
	"testing"

	"voltstack/internal/circuit"
	"voltstack/internal/power"
	"voltstack/internal/sc"
	"voltstack/internal/units"
)

// testParams returns a coarse, fast mesh for unit tests.
func testParams() Params {
	p := DefaultParams()
	p.GridNx, p.GridNy = 16, 16
	return p
}

func testConverter() sc.Params {
	c := sc.Default28nm()
	c.Cap = sc.Trench
	return c
}

func regularCfg(layers int, tsv TSVTopology) Config {
	return Config{
		Kind:             Regular,
		Layers:           layers,
		Chip:             power.Example16Core(),
		Params:           testParams(),
		TSV:              tsv,
		PadPowerFraction: 0.5,
	}
}

func vsCfg(layers, nConv int) Config {
	return Config{
		Kind:              VoltageStacked,
		Layers:            layers,
		Chip:              power.Example16Core(),
		Params:            testParams(),
		TSV:               FewTSV(),
		PadPowerFraction:  0.5,
		ConvertersPerCore: nConv,
		Converter:         testConverter(),
	}
}

func mustSolve(t *testing.T, cfg Config, acts [][]float64) *Result {
	t.Helper()
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := p.Solve(acts)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestConfigValidation(t *testing.T) {
	base := regularCfg(4, FewTSV())
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"zero layers", func(c *Config) { c.Layers = 0 }},
		{"vs single layer", func(c *Config) { c.Kind = VoltageStacked; c.Layers = 1 }},
		{"nil chip", func(c *Config) { c.Chip = nil }},
		{"bad pad fraction", func(c *Config) { c.PadPowerFraction = 0 }},
		{"pad fraction > 1", func(c *Config) { c.PadPowerFraction = 1.5 }},
		{"bad tsv", func(c *Config) { c.TSV = TSVTopology{Name: "x", PerCore: 1} }},
		{"vs no converters", func(c *Config) { c.Kind = VoltageStacked; c.ConvertersPerCore = 0 }},
		{"bad mesh", func(c *Config) { c.Params.GridNx = 1 }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := base
			c.mut(&cfg)
			if _, err := New(cfg); err == nil {
				t.Errorf("%s: expected error", c.name)
			}
		})
	}
}

func TestPadPlacementCounts(t *testing.T) {
	// Die 6.64x6.64 mm at 200 um pitch: 33x33 = 1089 sites.
	for _, frac := range []float64{0.25, 0.5, 1.0} {
		cfg := regularCfg(2, FewTSV())
		cfg.PadPowerFraction = frac
		p, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := int(1089 * frac)
		got := p.NumPowerPads()
		if got < want-2 || got > want+2 {
			t.Errorf("frac %g: %d power pads, want ~%d", frac, got, want)
		}
		vdd := p.NumVddPads()
		if vdd < got/2-1 || vdd > got/2+1 {
			t.Errorf("frac %g: %d vdd of %d power pads, want half", frac, vdd, got)
		}
	}
}

func TestPaperVddPadsPerCore(t *testing.T) {
	// The paper's "32 Vdd pads per core" corresponds to a full power pad
	// allocation: 1089 sites / 2 / 16 cores ≈ 34.
	cfg := regularCfg(2, FewTSV())
	cfg.PadPowerFraction = 1.0
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	perCore := float64(p.NumVddPads()) / 16
	if perCore < 30 || perCore > 36 {
		t.Errorf("Vdd pads per core = %g, want ~32-34", perCore)
	}
}

func TestTSVCounts(t *testing.T) {
	cfg := regularCfg(2, SparseTSV())
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Sparse: 1675 per core -> 837 Vdd + 837 ground per core, 16 cores.
	want := 2 * 837 * 16
	if got := p.NumTSVsPerBoundary(); got != want {
		t.Errorf("TSVs per boundary = %d, want %d", got, want)
	}
}

func TestTable2AreaOverheads(t *testing.T) {
	// Table 2: Dense 24.2%, Sparse 6.1%, Few 0.4% of core area.
	core := power.CortexA9Like().Area
	koz := DefaultParams().TSVKoZSide
	cases := []struct {
		topo TSVTopology
		want float64
	}{
		{DenseTSV(), 0.242},
		{SparseTSV(), 0.061},
		{FewTSV(), 0.004},
	}
	for _, c := range cases {
		got := c.topo.AreaOverheadFrac(core, koz)
		if !units.ApproxEqual(got, c.want, 0.01, 0.05) {
			t.Errorf("%s overhead = %.4f, want %.3f", c.topo.Name, got, c.want)
		}
	}
}

func TestConverterAreaOverheadMatchesPaper(t *testing.T) {
	// Paper: one SC converter with high-density caps is ~3% of an ARM
	// core; 8 converters/core + Few TSV ≈ Dense TSV total overhead.
	cfg := vsCfg(8, 8)
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	over := p.AreaOverheadFrac()
	dense := DenseTSV().AreaOverheadFrac(power.CortexA9Like().Area, cfg.Params.TSVKoZSide)
	if !units.ApproxEqual(over, dense, 0.02, 0.10) {
		t.Errorf("V-S 8conv+Few overhead %.3f should approximate Dense %.3f", over, dense)
	}
}

func TestRegularIRDropBasics(t *testing.T) {
	r := mustSolve(t, regularCfg(4, FewTSV()), UniformActivities(4, 16, 1))
	if r.MaxIRDropFrac <= 0 || r.MaxIRDropFrac > 0.2 {
		t.Errorf("max IR drop = %g, expected a few percent", r.MaxIRDropFrac)
	}
	if len(r.CellVoltages) != 4 {
		t.Errorf("cell voltage layers = %d", len(r.CellVoltages))
	}
	for l, cv := range r.CellVoltages {
		for _, v := range cv {
			if v <= 0.7 || v > 1.0 {
				t.Fatalf("layer %d: implausible cell voltage %g", l, v)
			}
		}
	}
}

func TestRegularIRDropGrowsWithLayers(t *testing.T) {
	r2 := mustSolve(t, regularCfg(2, FewTSV()), UniformActivities(2, 16, 1))
	r8 := mustSolve(t, regularCfg(8, FewTSV()), UniformActivities(8, 16, 1))
	if r8.MaxIRDropFrac <= r2.MaxIRDropFrac {
		t.Errorf("8-layer IR %g should exceed 2-layer %g", r8.MaxIRDropFrac, r2.MaxIRDropFrac)
	}
}

func TestRegularTSVTopologyOrdering(t *testing.T) {
	// More TSVs -> less IR drop: Dense < Sparse < Few.
	dense := mustSolve(t, regularCfg(8, DenseTSV()), UniformActivities(8, 16, 1))
	sparse := mustSolve(t, regularCfg(8, SparseTSV()), UniformActivities(8, 16, 1))
	few := mustSolve(t, regularCfg(8, FewTSV()), UniformActivities(8, 16, 1))
	if !(dense.MaxIRDropFrac < sparse.MaxIRDropFrac && sparse.MaxIRDropFrac < few.MaxIRDropFrac) {
		t.Errorf("IR ordering violated: dense %g, sparse %g, few %g",
			dense.MaxIRDropFrac, sparse.MaxIRDropFrac, few.MaxIRDropFrac)
	}
}

func TestEnergyBalance(t *testing.T) {
	for _, cfg := range []Config{regularCfg(4, SparseTSV()), vsCfg(4, 4)} {
		r := mustSolve(t, cfg, UniformActivities(4, 16, 1))
		sum := r.LoadPower + r.ConverterLoss + r.WireLoss
		if !units.WithinRel(r.InputPower, sum, 1e-6) {
			t.Errorf("%v: input %g != load+losses %g", cfg.Kind, r.InputPower, sum)
		}
		if r.Efficiency <= 0 || r.Efficiency >= 1 {
			t.Errorf("%v: efficiency %g", cfg.Kind, r.Efficiency)
		}
	}
}

func TestVSLoadPowerMatchesChip(t *testing.T) {
	cfg := vsCfg(4, 4)
	r := mustSolve(t, cfg, UniformActivities(4, 16, 1))
	want := 4 * 7.6 // four fully active 16-core layers
	if !units.WithinRel(r.LoadPower, want, 0.05) {
		t.Errorf("load power %g, want ~%g", r.LoadPower, want)
	}
}

func TestVSBalancedConvertersIdle(t *testing.T) {
	r := mustSolve(t, vsCfg(4, 4), UniformActivities(4, 16, 1))
	if r.MaxConverterCurrent > 0.015 {
		t.Errorf("balanced stack: max converter current %g A, want near zero", r.MaxConverterCurrent)
	}
	if r.OverLimit {
		t.Error("balanced stack must not exceed converter limits")
	}
}

func TestVSChargeRecyclingInputCurrent(t *testing.T) {
	// Balanced 4-layer V-S draws ~P/(4*Vdd) from the board: the defining
	// property of charge recycling.
	cfg := vsCfg(4, 4)
	r := mustSolve(t, cfg, UniformActivities(4, 16, 1))
	iIn := r.InputPower / (4 * cfg.Params.Vdd)
	iLayer := 7.6 / cfg.Params.Vdd
	if !units.WithinRel(iIn, iLayer, 0.10) {
		t.Errorf("stack input current %g A, want ~ one layer's %g A", iIn, iLayer)
	}
}

func TestVSRegularPadCurrentRatio(t *testing.T) {
	// V-S reduces off-chip current density by ~N.
	layers := 4
	reg := mustSolve(t, regularCfg(layers, FewTSV()), UniformActivities(layers, 16, 1))
	vs := mustSolve(t, vsCfg(layers, 4), UniformActivities(layers, 16, 1))
	avg := func(v []float64) float64 {
		var s float64
		for _, x := range v {
			s += x
		}
		return s / float64(len(v))
	}
	ratio := avg(reg.PadCurrents) / avg(vs.PadCurrents)
	if ratio < float64(layers)*0.7 || ratio > float64(layers)*1.4 {
		t.Errorf("pad current ratio = %g, want ~%d", ratio, layers)
	}
}

func TestVSNoiseGrowsWithImbalance(t *testing.T) {
	cfg := vsCfg(8, 8)
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	prev := -1.0
	for _, imb := range []float64{0, 0.25, 0.5, 0.75, 1.0} {
		r, err := p.Solve(InterleavedActivities(8, 16, imb))
		if err != nil {
			t.Fatal(err)
		}
		if r.MaxIRDropFrac <= prev {
			t.Errorf("IR drop not increasing at imbalance %g: %g <= %g", imb, r.MaxIRDropFrac, prev)
		}
		prev = r.MaxIRDropFrac
	}
}

func TestVSMoreConvertersLessNoise(t *testing.T) {
	imb := InterleavedActivities(8, 16, 0.5)
	prev := math.Inf(1)
	for _, n := range []int{2, 4, 8} {
		r := mustSolve(t, vsCfg(8, n), imb)
		if r.MaxIRDropFrac >= prev {
			t.Errorf("%d converters should reduce noise (got %g, prev %g)", n, r.MaxIRDropFrac, prev)
		}
		prev = r.MaxIRDropFrac
	}
}

func TestVSConverterCurrentMatchesDifferential(t *testing.T) {
	// Interleaved pattern at imbalance x: the differential current per
	// core is x * dynamic current = x*0.38/Vdd A, shared by n converters.
	cfg := vsCfg(8, 8)
	r := mustSolve(t, cfg, InterleavedActivities(8, 16, 0.6))
	wantJ := 0.6 * (7.6 * 0.8 / 16) / 8 // x * core dyn power / n
	if !units.WithinRel(r.MaxConverterCurrent, wantJ, 0.35) {
		t.Errorf("max converter current %g, want ~%g", r.MaxConverterCurrent, wantJ)
	}
}

func TestVSConverterLimitEnforced(t *testing.T) {
	// 2 converters/core at 100% imbalance: J ~ 190 mA >> 100 mA limit.
	r := mustSolve(t, vsCfg(8, 2), InterleavedActivities(8, 16, 1.0))
	if !r.OverLimit {
		t.Error("2 conv/core at 100% imbalance must exceed the 100 mA limit")
	}
	// The paper's cutoff: just above 50% imbalance.
	r50 := mustSolve(t, vsCfg(8, 2), InterleavedActivities(8, 16, 0.45))
	if r50.OverLimit {
		t.Errorf("2 conv/core at 45%% should be within limits (J=%g)", r50.MaxConverterCurrent)
	}
}

func TestVSEfficiencyDeclinesWithImbalance(t *testing.T) {
	cfg := vsCfg(8, 4)
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	prev := 2.0
	for _, imb := range []float64{0.1, 0.5, 1.0} {
		r, err := p.Solve(InterleavedActivities(8, 16, imb))
		if err != nil {
			t.Fatal(err)
		}
		if r.Efficiency >= prev {
			t.Errorf("efficiency should decline with imbalance: %g at %g", r.Efficiency, imb)
		}
		prev = r.Efficiency
	}
}

func TestVSMoreConvertersLowerEfficiency(t *testing.T) {
	// Open-loop converters burn fixed parasitic power each: Fig. 8.
	imb := InterleavedActivities(8, 16, 0.3)
	prev := 2.0
	for _, n := range []int{2, 4, 8} {
		r := mustSolve(t, vsCfg(8, n), imb)
		if r.Efficiency >= prev {
			t.Errorf("%d conv/core: efficiency %g should be below %g", n, r.Efficiency, prev)
		}
		prev = r.Efficiency
	}
}

func TestVSBeatsRegularSCBaseline(t *testing.T) {
	// Fig. 8: V-S PDN efficiency exceeds the regular-PDN-with-SC baseline
	// at every imbalance (converters process only the differential).
	cfg := vsCfg(8, 8)
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, imb := range []float64{0.1, 0.5, 1.0} {
		r, err := p.Solve(InterleavedActivities(8, 16, imb))
		if err != nil {
			t.Fatal(err)
		}
		base, err := RegularSCEfficiency(cfg, imb)
		if err != nil {
			t.Fatal(err)
		}
		if r.Efficiency <= base {
			t.Errorf("imb %g: V-S %g should beat regular-SC %g", imb, r.Efficiency, base)
		}
	}
}

func TestSolverChoicesAgree(t *testing.T) {
	cfg := vsCfg(3, 4)
	cfg.Solve = circuit.SolveOptions{Solver: circuit.DirectSparseND}
	rd := mustSolve(t, cfg, InterleavedActivities(3, 16, 0.5))
	cfg.Solve = circuit.SolveOptions{Solver: circuit.PCGIC0, Tol: 1e-12}
	ri := mustSolve(t, cfg, InterleavedActivities(3, 16, 0.5))
	if !units.ApproxEqual(rd.MaxIRDropFrac, ri.MaxIRDropFrac, 1e-6, 1e-4) {
		t.Errorf("direct %g vs pcg %g", rd.MaxIRDropFrac, ri.MaxIRDropFrac)
	}
}

func TestMeshRefinementStable(t *testing.T) {
	// The IR-drop metric should be stable (within ~25%) under mesh
	// refinement, since GridRSeg rescales with resolution.
	coarse := regularCfg(4, SparseTSV())
	fine := coarse
	fine.Params.GridNx, fine.Params.GridNy = 24, 24
	rc := mustSolve(t, coarse, UniformActivities(4, 16, 1))
	rf := mustSolve(t, fine, UniformActivities(4, 16, 1))
	if !units.WithinRel(rc.MaxIRDropFrac, rf.MaxIRDropFrac, 0.25) {
		t.Errorf("mesh sensitivity too high: 16x16 %g vs 24x24 %g", rc.MaxIRDropFrac, rf.MaxIRDropFrac)
	}
}

func TestEMCurrentArraysPopulated(t *testing.T) {
	layers := 3
	reg := mustSolve(t, regularCfg(layers, FewTSV()), UniformActivities(layers, 16, 1))
	// Regular: (layers-1) boundaries x 1760 TSVs, minus cluster members
	// shielded by the crowding model.
	full := (layers - 1) * 1760
	if len(reg.TSVCurrents) > full || len(reg.TSVCurrents) < full/2 {
		t.Errorf("regular TSV conductors = %d, want in (%d, %d]", len(reg.TSVCurrents), full/2, full)
	}
	vs := mustSolve(t, vsCfg(layers, 4), UniformActivities(layers, 16, 1))
	// V-S additionally stresses one through-via per Vdd pad; its pad
	// array has one entry per power pad.
	p, _ := New(vsCfg(layers, 4))
	if len(vs.TSVCurrents) <= len(reg.TSVCurrents)/2 {
		t.Errorf("V-S TSV conductors = %d, implausibly few", len(vs.TSVCurrents))
	}
	if got, want := len(vs.PadCurrents), p.NumPowerPads(); got != want {
		t.Errorf("V-S pad conductors = %d, want %d", got, want)
	}
	if got, want := len(reg.PadCurrents), p.NumPowerPads(); got != want {
		t.Errorf("regular pad conductors = %d, want %d", got, want)
	}
	for _, c := range append(append([]float64{}, reg.TSVCurrents...), vs.TSVCurrents...) {
		if c < 0 || math.IsNaN(c) {
			t.Fatal("negative or NaN conductor current")
		}
	}
}

func TestCrowdEff(t *testing.T) {
	p := DefaultParams()
	if p.CrowdEff(1) != 1 {
		t.Error("single TSV unaffected")
	}
	if got := p.CrowdEff(52); got >= 52 || got < 2 {
		t.Errorf("CrowdEff(52) = %d, want a small effective count", got)
	}
	if p.CrowdEff(13) > p.CrowdEff(52) {
		t.Error("effective count must grow (weakly) with cluster size")
	}
	off := p
	off.TSVCrowdCoef = 0
	if off.CrowdEff(52) != 52 {
		t.Error("disabled crowding should return the full count")
	}
}

func TestActivityHelpers(t *testing.T) {
	u := UniformActivities(3, 4, 0.7)
	if len(u) != 3 || len(u[0]) != 4 || u[2][3] != 0.7 {
		t.Error("UniformActivities wrong")
	}
	iv := InterleavedActivities(4, 2, 0.3)
	if iv[0][0] != 1 || !units.WithinRel(iv[1][0], 0.7, 1e-12) || iv[2][1] != 1 {
		t.Errorf("InterleavedActivities wrong: %v", iv)
	}
	over := InterleavedActivities(2, 1, 1.5)
	if over[1][0] != 0 {
		t.Error("imbalance > 1 should clamp at zero activity")
	}
}

func TestSolveRejectsBadActivities(t *testing.T) {
	p, err := New(vsCfg(3, 2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Solve(UniformActivities(2, 16, 1)); err == nil {
		t.Error("wrong layer count not caught")
	}
	bad := UniformActivities(3, 16, 1)
	bad[1][4] = 2.0
	if _, err := p.Solve(bad); err == nil {
		t.Error("activity > 1 not caught")
	}
}

func TestKindString(t *testing.T) {
	if Regular.String() != "regular" || VoltageStacked.String() != "voltage-stacked" {
		t.Error("Kind.String wrong")
	}
}
