package sc

import (
	"math"
	"testing"
	"testing/quick"

	"voltstack/internal/units"
)

func TestDefault28nmMatchesPaper(t *testing.T) {
	p := Default28nm()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	// Paper: 8 nF total fly capacitance, 50 MHz optimum, 100 mA max load,
	// 4-way interleaving, RSERIES = 0.6 ohm.
	if p.Ctot != 8e-9 {
		t.Errorf("Ctot = %g", p.Ctot)
	}
	if p.FSw != 50e6 {
		t.Errorf("FSw = %g", p.FSw)
	}
	if p.MaxLoad != 0.1 {
		t.Errorf("MaxLoad = %g", p.MaxLoad)
	}
	if p.Interleave != 4 {
		t.Errorf("Interleave = %d", p.Interleave)
	}
	if rs := p.RSeriesNominal(); !units.ApproxEqual(rs, 0.6, 0.01, 0.02) {
		t.Errorf("RSERIES = %g, want 0.6 (paper)", rs)
	}
}

func TestRSSLFormula(t *testing.T) {
	// Eq. (1): RSSL = (Σ|ac|)² / (Ctot f).
	p := Default28nm()
	s := p.Topo.SumAC()
	want := s * s / (p.Ctot * p.FSw)
	if got := p.RSSL(p.FSw); !units.WithinRel(got, want, 1e-12) {
		t.Errorf("RSSL = %g, want %g", got, want)
	}
	// Doubling frequency halves RSSL.
	if !units.WithinRel(p.RSSL(2*p.FSw), want/2, 1e-12) {
		t.Error("RSSL should scale as 1/f")
	}
}

func TestRFSLFormula(t *testing.T) {
	// Eq. (2): RFSL = (Σ|ar|)² / (Gtot Dcyc), frequency independent.
	p := Default28nm()
	s := p.Topo.SumAR()
	want := s * s / (p.Gtot * p.Dcyc)
	if got := p.RFSL(); !units.WithinRel(got, want, 1e-12) {
		t.Errorf("RFSL = %g, want %g", got, want)
	}
}

func TestRSeriesCombination(t *testing.T) {
	p := Default28nm()
	f := p.FSw
	want := math.Hypot(p.RSSL(f), p.RFSL())
	if got := p.RSeries(f); !units.WithinRel(got, want, 1e-12) {
		t.Errorf("RSeries = %g, want %g", got, want)
	}
}

func TestTwoToOneChargeMultipliers(t *testing.T) {
	topo := TwoToOne()
	if !units.WithinRel(topo.SumAC(), 1/(2*math.Sqrt2), 1e-12) {
		t.Errorf("Σ|ac| = %g, want 1/(2√2)", topo.SumAC())
	}
	if !units.WithinRel(topo.SumAR(), 2, 1e-12) {
		t.Errorf("Σ|ar| = %g, want 2", topo.SumAR())
	}
	if topo.Ratio != 0.5 {
		t.Errorf("Ratio = %g", topo.Ratio)
	}
	if len(topo.AC) != 2 || len(topo.AR) != 8 {
		t.Errorf("push-pull cell should have 2 caps and 8 switches, got %d/%d", len(topo.AC), len(topo.AR))
	}
}

func TestAreaMatchesPaperPerTechnology(t *testing.T) {
	// Paper Sec. 3.1: MIM 0.472 mm², ferroelectric 0.102 mm²,
	// trench 0.082 mm² for the 8 nF converter.
	cases := []struct {
		tech CapTech
		mm2  float64
	}{
		{MIM, 0.472},
		{Ferroelectric, 0.102},
		{Trench, 0.082},
	}
	for _, c := range cases {
		p := Default28nm()
		p.Cap = c.tech
		got := p.Area() / (units.Millimeter * units.Millimeter)
		if !units.WithinRel(got, c.mm2, 1e-9) {
			t.Errorf("%v area = %g mm², want %g", c.tech, got, c.mm2)
		}
	}
}

func TestCapTechOrdering(t *testing.T) {
	if !(Trench.Density() > Ferroelectric.Density() && Ferroelectric.Density() > MIM.Density()) {
		t.Error("density ordering should be trench > ferroelectric > MIM")
	}
}

func TestEvaluateOpenLoopBasics(t *testing.T) {
	p := Default28nm()
	op := Evaluate(p, OpenLoop{}, 2.0, 50e-3)
	if op.Freq != p.FSw {
		t.Errorf("open loop should hold f = FSw, got %g", op.Freq)
	}
	if !units.WithinRel(op.VNoLoad, 1.0, 1e-12) {
		t.Errorf("VNoLoad = %g", op.VNoLoad)
	}
	if wantDrop := 50e-3 * p.RSeriesNominal(); !units.WithinRel(op.VDrop, wantDrop, 1e-12) {
		t.Errorf("VDrop = %g, want %g", op.VDrop, wantDrop)
	}
	if op.Efficiency <= 0 || op.Efficiency >= 1 {
		t.Errorf("efficiency = %g out of (0,1)", op.Efficiency)
	}
	// Energy accounting: POut + losses = VNoLoad * ILoad + PParasitic
	// (the ideal transformer input power).
	pin := op.POut + op.PCond + op.PParasitic
	if !units.WithinRel(pin, op.VNoLoad*op.ILoad+op.PParasitic, 1e-9) {
		t.Errorf("power bookkeeping mismatch: %g vs %g", pin, op.VNoLoad*op.ILoad+op.PParasitic)
	}
}

func TestOpenLoopEfficiencyRisesWithLoad(t *testing.T) {
	// Fig. 3b: open-loop efficiency increases monotonically from ~45% at
	// 10 mA toward ~83% at 90 mA (fixed parasitic loss amortized).
	p := Default28nm()
	prev := 0.0
	for _, il := range []float64{0.01, 0.03, 0.05, 0.07, 0.09} {
		op := Evaluate(p, OpenLoop{}, 2.0, il)
		if op.Efficiency <= prev {
			t.Errorf("efficiency not increasing at %g A: %g <= %g", il, op.Efficiency, prev)
		}
		prev = op.Efficiency
	}
	lo := Evaluate(p, OpenLoop{}, 2.0, 0.01).Efficiency
	hi := Evaluate(p, OpenLoop{}, 2.0, 0.09).Efficiency
	if lo < 0.35 || lo > 0.55 {
		t.Errorf("efficiency at 10 mA = %g, expected ~0.45", lo)
	}
	if hi < 0.78 || hi > 0.90 {
		t.Errorf("efficiency at 90 mA = %g, expected ~0.83", hi)
	}
}

func TestClosedLoopEfficiencyFlat(t *testing.T) {
	// Fig. 3a: closed-loop efficiency stays high (>80%) across the whole
	// 1.6-100 mA range because fSW tracks the load.
	p := Default28nm()
	cl := ClosedLoop{}
	for _, il := range []float64{1.6e-3, 3.1e-3, 6.3e-3, 12.5e-3, 25e-3, 50e-3, 100e-3} {
		op := Evaluate(p, cl, 2.0, il)
		if op.Efficiency < 0.80 {
			t.Errorf("closed-loop efficiency at %g A = %g, want > 0.80", il, op.Efficiency)
		}
	}
}

func TestClosedLoopBeatsOpenLoopAtLightLoad(t *testing.T) {
	p := Default28nm()
	il := 5e-3
	open := Evaluate(p, OpenLoop{}, 2.0, il)
	closed := Evaluate(p, ClosedLoop{}, 2.0, il)
	if closed.Efficiency <= open.Efficiency {
		t.Errorf("closed loop (%g) should beat open loop (%g) at light load",
			closed.Efficiency, open.Efficiency)
	}
}

func TestClosedLoopFrequencyClamped(t *testing.T) {
	p := Default28nm()
	cl := ClosedLoop{FloorFraction: 0.05}
	if f := cl.Freq(p, 0); f != 0.05*p.FSw {
		t.Errorf("zero load freq = %g, want floor", f)
	}
	if f := cl.Freq(p, 10); f != p.FSw {
		t.Errorf("overload freq = %g, want nominal", f)
	}
	// Sink current uses |I|.
	if f := cl.Freq(p, -0.05); f != 0.5*p.FSw {
		t.Errorf("sink freq = %g, want half nominal", f)
	}
}

func TestOverLimit(t *testing.T) {
	p := Default28nm()
	if p.OverLimit(0.1) {
		t.Error("exactly MaxLoad should not be over limit")
	}
	if !p.OverLimit(0.101) {
		t.Error("101 mA should be over the 100 mA limit")
	}
	if !p.OverLimit(-0.101) {
		t.Error("sinking 101 mA should be over limit too")
	}
}

func TestParasiticShuntG(t *testing.T) {
	p := Default28nm()
	vin := 2.0
	g := p.ParasiticShuntG(p.FSw, vin)
	if !units.WithinRel(g*vin*vin, p.ParasiticPower(p.FSw), 1e-12) {
		t.Error("shunt conductance must dissipate exactly the parasitic power")
	}
	if p.ParasiticShuntG(p.FSw, 0) != 0 {
		t.Error("zero vin should give zero shunt")
	}
}

func TestValidateCatchesBadParams(t *testing.T) {
	base := Default28nm()
	mutations := []func(*Params){
		func(p *Params) { p.Ctot = 0 },
		func(p *Params) { p.FSw = -1 },
		func(p *Params) { p.Gtot = 0 },
		func(p *Params) { p.Dcyc = 0 },
		func(p *Params) { p.Dcyc = 1.5 },
		func(p *Params) { p.Topo.AC = nil },
		func(p *Params) { p.MaxLoad = 0 },
	}
	for i, mut := range mutations {
		p := base
		mut(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("mutation %d not caught", i)
		}
	}
}

func TestEvaluatePropertyEfficiencyBounds(t *testing.T) {
	p := Default28nm()
	f := func(ilRaw, vinRaw float64) bool {
		il := math.Abs(math.Mod(ilRaw, 0.1))
		vin := 1 + math.Abs(math.Mod(vinRaw, 3))
		if il == 0 {
			return true
		}
		op := Evaluate(p, OpenLoop{}, vin, il)
		return op.Efficiency >= 0 && op.Efficiency <= 1 && op.VOut <= op.VNoLoad
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestLadderConstruction(t *testing.T) {
	cell := Default28nm()
	if _, err := NewLadder(1, cell); err == nil {
		t.Error("1-layer ladder should be rejected")
	}
	l, err := NewLadder(8, cell)
	if err != nil {
		t.Fatal(err)
	}
	if l.NumCells() != 7 {
		t.Errorf("NumCells = %d, want 7", l.NumCells())
	}
	if !units.WithinRel(l.TotalArea(), 7*cell.Area(), 1e-12) {
		t.Error("TotalArea mismatch")
	}
}

func TestLadderNoLoadVoltages(t *testing.T) {
	cell := Default28nm()
	l, _ := NewLadder(4, cell)
	v := l.NoLoadVoltages(4.0)
	want := []float64{0, 1, 2, 3, 4}
	for i := range want {
		if !units.ApproxEqual(v[i], want[i], 1e-12, 1e-12) {
			t.Errorf("V[%d] = %g, want %g", i, v[i], want[i])
		}
	}
}

func TestLadderBalancedLoadsZeroCurrent(t *testing.T) {
	cell := Default28nm()
	l, _ := NewLadder(6, cell)
	j, err := l.CellCurrents([]float64{2, 2, 2, 2, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range j {
		if math.Abs(v) > 1e-12 {
			t.Errorf("balanced ladder cell %d carries %g", k, v)
		}
	}
}

func TestLadderTwoLayerDifferential(t *testing.T) {
	cell := Default28nm()
	l, _ := NewLadder(2, cell)
	j, err := l.CellCurrents([]float64{2, 1}) // bottom heavy
	if err != nil {
		t.Fatal(err)
	}
	if !units.WithinRel(j[0], 1, 1e-12) {
		t.Errorf("J = %g, want 1 (= I_bottom - I_top)", j[0])
	}
	iin, err := l.InputCurrent([]float64{2, 1})
	if err != nil {
		t.Fatal(err)
	}
	if !units.WithinRel(iin, 1.5, 1e-12) {
		t.Errorf("input current = %g, want 1.5", iin)
	}
}

func TestLadderAlternatingPattern(t *testing.T) {
	// The interleaved high/low pattern of the paper's Fig. 6 benchmark:
	// for H,L,H,L the middle cell idles and the outer cells carry H-L.
	cell := Default28nm()
	l, _ := NewLadder(4, cell)
	h, lo := 3.0, 1.0
	j, err := l.CellCurrents([]float64{h, lo, h, lo})
	if err != nil {
		t.Fatal(err)
	}
	d := h - lo
	if !units.WithinRel(j[0], d, 1e-9) || !units.WithinRel(j[2], d, 1e-9) {
		t.Errorf("outer cells = %g, %g; want %g", j[0], j[2], d)
	}
	if math.Abs(j[1]) > 1e-9 {
		t.Errorf("middle cell = %g, want 0", j[1])
	}
}

func TestLadderEnergyConservation(t *testing.T) {
	// Lossless ladder: input power at N·Vdd equals Σ load_i · Vdd.
	cell := Default28nm()
	f := func(a, b, c, d float64) bool {
		loads := []float64{abs1(a), abs1(b), abs1(c), abs1(d)}
		l, _ := NewLadder(4, cell)
		iin, err := l.InputCurrent(loads)
		if err != nil {
			return false
		}
		var sum float64
		for _, x := range loads {
			sum += x
		}
		// P_in = iin * 4·Vdd must equal Σ I_i · Vdd  =>  iin = sum/4.
		return units.ApproxEqual(iin, sum/4, 1e-9, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func abs1(x float64) float64 {
	v := math.Abs(math.Mod(x, 10))
	if math.IsNaN(v) {
		return 1
	}
	return v
}

func TestLadderMaxCellCurrent(t *testing.T) {
	cell := Default28nm()
	l, _ := NewLadder(8, cell)
	loads := []float64{5, 1, 5, 1, 5, 1, 5, 1}
	m, err := l.MaxCellCurrent(loads)
	if err != nil {
		t.Fatal(err)
	}
	if m <= 0 {
		t.Error("imbalanced ladder must carry nonzero current")
	}
	balanced, _ := l.MaxCellCurrent([]float64{3, 3, 3, 3, 3, 3, 3, 3})
	if balanced > 1e-9 {
		t.Errorf("balanced max current = %g", balanced)
	}
}

func TestLadderWrongLoadCount(t *testing.T) {
	cell := Default28nm()
	l, _ := NewLadder(4, cell)
	if _, err := l.CellCurrents([]float64{1, 2}); err == nil {
		t.Error("expected length mismatch error")
	}
}

func TestLadderEvaluateBalanced(t *testing.T) {
	l, _ := NewLadder(4, Default28nm())
	op, err := l.Evaluate([]float64{1, 1, 1, 1}, OpenLoop{}, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if op.MaxCellCurrent > 1e-9 || op.OverLimit {
		t.Errorf("balanced ladder should idle: %+v", op)
	}
	// Only parasitic losses remain: efficiency just under 1.
	if op.Efficiency < 0.95 || op.Efficiency >= 1 {
		t.Errorf("balanced efficiency = %g", op.Efficiency)
	}
}

func TestLadderEvaluateImbalanced(t *testing.T) {
	l, _ := NewLadder(4, Default28nm())
	op, err := l.Evaluate([]float64{0.08, 0.02, 0.08, 0.02}, OpenLoop{}, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if op.MaxCellCurrent <= 0 {
		t.Error("imbalanced ladder must shuttle current")
	}
	if op.MaxVDrop <= 0 {
		t.Error("shuttling current must droop the cells")
	}
	if op.OverLimit {
		t.Error("60 mA differential should be within ratings")
	}
	balanced, _ := l.Evaluate([]float64{0.05, 0.05, 0.05, 0.05}, OpenLoop{}, 1.0)
	if op.Efficiency >= balanced.Efficiency {
		t.Error("imbalance must cost efficiency")
	}
}

func TestLadderEvaluateOverLimit(t *testing.T) {
	l, _ := NewLadder(2, Default28nm())
	op, err := l.Evaluate([]float64{0.3, 0.05}, OpenLoop{}, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if !op.OverLimit {
		t.Errorf("250 mA differential must exceed the cell rating (J=%g)", op.MaxCellCurrent)
	}
}
