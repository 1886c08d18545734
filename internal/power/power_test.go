package power

import (
	"math"
	"testing"
	"testing/quick"

	"voltstack/internal/units"
)

func TestPaperCalibrationAnchors(t *testing.T) {
	// Sec. 4.1: 16-core layer at 1 GHz / 1 V has 7.6 W peak power and
	// 44.12 mm² area.
	ch := Example16Core()
	if ch.NumCores() != 16 {
		t.Fatalf("cores = %d", ch.NumCores())
	}
	if got := ch.PeakPower(); !units.WithinRel(got, 7.6, 1e-9) {
		t.Errorf("peak power = %g W, want 7.6", got)
	}
	if got := ch.Area(); !units.WithinRel(got, 44.12e-6, 1e-9) {
		t.Errorf("area = %g m², want 44.12 mm²", got)
	}
	if ch.Core.FClk != 1e9 || ch.Core.Vdd != 1.0 {
		t.Error("nominal operating point should be 1 GHz / 1 V")
	}
}

func TestCoreSpecValidates(t *testing.T) {
	c := CortexA9Like()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := c
	bad.Units = append([]UnitSpec(nil), c.Units...)
	bad.Units[0].AreaFrac += 0.5
	if err := bad.Validate(); err == nil {
		t.Error("area fraction sum > 1 not caught")
	}
	bad = c
	bad.Units = nil
	if err := bad.Validate(); err == nil {
		t.Error("empty units not caught")
	}
	bad = c
	bad.Area = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero area not caught")
	}
}

func TestDynamicScaling(t *testing.T) {
	c := CortexA9Like()
	base := c.Dynamic(1, c.Vdd, c.FClk)
	if !units.WithinRel(base, c.PeakDynamic, 1e-12) {
		t.Errorf("full activity dynamic = %g, want %g", base, c.PeakDynamic)
	}
	if got := c.Dynamic(0.5, c.Vdd, c.FClk); !units.WithinRel(got, base/2, 1e-12) {
		t.Error("dynamic not linear in activity")
	}
	// V²: 0.9 V gives 81 %.
	if got := c.Dynamic(1, 0.9, c.FClk); !units.WithinRel(got, base*0.81, 1e-12) {
		t.Error("dynamic not quadratic in V")
	}
	// f: half clock halves dynamic.
	if got := c.Dynamic(1, c.Vdd, c.FClk/2); !units.WithinRel(got, base/2, 1e-12) {
		t.Error("dynamic not linear in f")
	}
	if got := c.Dynamic(-1, c.Vdd, c.FClk); got != 0 {
		t.Error("negative activity should clamp to zero")
	}
}

func TestLeakageScaling(t *testing.T) {
	c := CortexA9Like()
	if got := c.Leak(c.Vdd); !units.WithinRel(got, c.Leakage, 1e-12) {
		t.Error("nominal leakage mismatch")
	}
	if got := c.Leak(0.5); !units.WithinRel(got, c.Leakage/2, 1e-12) {
		t.Error("leakage not linear in V")
	}
}

func TestUnitPowersSumToCoreTotal(t *testing.T) {
	c := CortexA9Like()
	for _, act := range []float64{0, 0.3, 1} {
		up := c.UnitPowers(act)
		var sum float64
		for _, p := range up {
			if p < 0 {
				t.Errorf("negative unit power at activity %g", act)
			}
			sum += p
		}
		if want := c.Total(act, c.Vdd, c.FClk); !units.WithinRel(sum, want, 1e-9) {
			t.Errorf("unit powers sum %g, want %g at activity %g", sum, want, act)
		}
	}
}

func TestIdleCoreStillLeaks(t *testing.T) {
	c := CortexA9Like()
	up := c.UnitPowers(0)
	for i, p := range up {
		if p <= 0 {
			t.Errorf("idle unit %s has power %g, leakage must remain", c.Units[i].Name, p)
		}
	}
}

func TestFloorplanUnitsMatch(t *testing.T) {
	c := CortexA9Like()
	fu := c.FloorplanUnits()
	if len(fu) != len(c.Units) {
		t.Fatal("length mismatch")
	}
	for i := range fu {
		if fu[i].Name != c.Units[i].Name || fu[i].AreaShare != c.Units[i].AreaFrac {
			t.Errorf("unit %d mismatch", i)
		}
	}
}

func TestChipFloorplanCoversDie(t *testing.T) {
	ch := Example16Core()
	fp, err := ch.Floorplan()
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, b := range fp.Blocks {
		sum += b.Rect.Area()
	}
	if !units.WithinRel(sum, ch.Area(), 1e-9) {
		t.Errorf("blocks cover %g of %g", sum, ch.Area())
	}
	if len(fp.Tiles) != 16 {
		t.Errorf("tiles = %d", len(fp.Tiles))
	}
}

func TestPowerMapMatchesBlocks(t *testing.T) {
	ch := Example16Core()
	fp, err := ch.Floorplan()
	if err != nil {
		t.Fatal(err)
	}
	acts := make([]float64, 16)
	for i := range acts {
		acts[i] = float64(i) / 15
	}
	pm, err := ch.PowerMap(acts)
	if err != nil {
		t.Fatal(err)
	}
	if len(pm) != len(fp.Blocks) {
		t.Fatalf("power map %d entries, %d blocks", len(pm), len(fp.Blocks))
	}
	var sum, want float64
	for _, p := range pm {
		sum += p
	}
	for _, a := range acts {
		want += ch.Core.Total(a, ch.Core.Vdd, ch.Core.FClk)
	}
	if !units.WithinRel(sum, want, 1e-9) {
		t.Errorf("total mapped power %g, want %g", sum, want)
	}
}

func TestPowerMapValidation(t *testing.T) {
	ch := Example16Core()
	if _, err := ch.PowerMap([]float64{1}); err == nil {
		t.Error("wrong activity count not caught")
	}
	bad := make([]float64, 16)
	bad[3] = 1.5
	if _, err := ch.PowerMap(bad); err == nil {
		t.Error("activity > 1 not caught")
	}
}

func TestImbalancePowers(t *testing.T) {
	ch := Example16Core()
	hi, lo := ch.ImbalancePowers(0)
	if !units.WithinRel(hi, lo, 1e-12) {
		t.Error("zero imbalance should give equal layers")
	}
	hi, lo = ch.ImbalancePowers(1)
	if !units.WithinRel(hi, 7.6, 1e-9) {
		t.Errorf("high layer = %g", hi)
	}
	// 100% imbalance: low layer has only leakage (20% of 7.6 W).
	if !units.WithinRel(lo, 7.6*0.2, 1e-9) {
		t.Errorf("idle layer = %g, want leakage only", lo)
	}
	// Clamped outside [0,1].
	_, lo2 := ch.ImbalancePowers(2)
	if lo2 != lo {
		t.Error("imbalance should clamp at 1")
	}
}

func TestImbalanceMonotone(t *testing.T) {
	ch := Example16Core()
	f := func(aRaw, bRaw float64) bool {
		a := math.Abs(math.Mod(aRaw, 1))
		b := math.Abs(math.Mod(bRaw, 1))
		if a > b {
			a, b = b, a
		}
		_, loA := ch.ImbalancePowers(a)
		_, loB := ch.ImbalancePowers(b)
		return loA >= loB
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestNewChipRejectsBadGrid(t *testing.T) {
	if _, err := NewChip(CortexA9Like(), 0, 4); err == nil {
		t.Error("0 rows not caught")
	}
	bad := CortexA9Like()
	bad.FClk = 0
	if _, err := NewChip(bad, 4, 4); err == nil {
		t.Error("invalid core not caught")
	}
}

func TestLeakageTemperatureModel(t *testing.T) {
	c := CortexA9Like()
	// At the nominal characterization point LeakAt matches Leak.
	if got := c.LeakAt(c.Vdd, LeakTNomC); !units.WithinRel(got, c.Leakage, 1e-12) {
		t.Errorf("LeakAt(nominal) = %g, want %g", got, c.Leakage)
	}
	// Roughly 2x per 25 C.
	ratio := c.LeakAt(c.Vdd, LeakTNomC+25) / c.LeakAt(c.Vdd, LeakTNomC)
	if ratio < 1.8 || ratio > 2.2 {
		t.Errorf("25 C leakage growth = %gx, want ~2x", ratio)
	}
	// Cooler silicon leaks less.
	if c.LeakAt(c.Vdd, 40) >= c.Leakage {
		t.Error("leakage should fall below nominal at 40 C")
	}
	// Monotone in temperature.
	if c.LeakAt(c.Vdd, 90) >= c.LeakAt(c.Vdd, 110) {
		t.Error("leakage must grow with temperature")
	}
}
