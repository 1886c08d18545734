// Package sc models switched-capacitor (SC) DC-DC converters using the
// analytical methodology of Seeman ("A design methodology for
// switched-capacitor DC-DC converters"): charge-multiplier vectors give the
// slow-switching (RSSL) and fast-switching (RFSL) asymptotic output
// impedances, combined as RSERIES = sqrt(RSSL² + RFSL²).
//
// The converter modeled by default is the paper's 2:1 push-pull converter:
// 28 nm implementation, 8 nF of integrated fly capacitance, 50 MHz optimum
// switching frequency, 4-way interleaving, 100 mA maximum load, with a
// "push-pull" ability to source or sink the current mismatch between two
// stacked loads.
package sc

import (
	"fmt"
	"math"

	"voltstack/internal/units"
)

// Topology describes an SC converter topology by its charge-multiplier
// vectors: AC over the fly capacitors and AR over the switches, both
// normalized to the output charge per cycle, plus the ideal conversion
// ratio (output voltage as a fraction of input voltage).
type Topology struct {
	Name  string
	AC    []float64 // per-capacitor charge multipliers
	AR    []float64 // per-switch charge multipliers
	Ratio float64   // ideal Vout/Vin
}

// TwoToOne returns the paper's push-pull 2:1 cell (Fig. 1): two fly
// capacitors interchanging positions every phase, eight switches. Because
// both capacitors transfer charge in both clock phases, the pair's
// slow-switching impedance is 1/(8·Ctot·f), i.e. Σ|ac| = 1/(2√2) — a
// factor √2 below a single-capacitor 2:1 divider. This value was verified
// against the switch-level transient simulator in package spice.
// Each of the 8 switches carries a quarter of the output charge per cycle.
func TwoToOne() Topology {
	const acEach = 0.17677669529663687 // 1/(4√2), per capacitor
	return Topology{
		Name:  "2:1 push-pull",
		AC:    []float64{acEach, acEach},
		AR:    []float64{0.25, 0.25, 0.25, 0.25, 0.25, 0.25, 0.25, 0.25},
		Ratio: 0.5,
	}
}

// SumAC returns Σ|ac,i|.
func (t Topology) SumAC() float64 { return sumAbs(t.AC) }

// SumAR returns Σ|ar,i|.
func (t Topology) SumAR() float64 { return sumAbs(t.AR) }

func sumAbs(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += math.Abs(x)
	}
	return s
}

// CapTech selects the integrated capacitor technology, which sets the area
// of the fly capacitors (the dominant area term). Densities are chosen so
// that an 8 nF converter occupies the areas quoted in the paper:
// MIM 0.472 mm², ferroelectric 0.102 mm², deep-trench 0.082 mm².
type CapTech int

const (
	// MIM is a metal-insulator-metal capacitor (low density).
	MIM CapTech = iota
	// Ferroelectric is a high-density ferroelectric capacitor.
	Ferroelectric
	// Trench is a deep-trench capacitor (highest density).
	Trench
)

// Density returns the capacitance density in F/m².
func (c CapTech) Density() float64 {
	const ctot = 8 * units.Nanofarad
	switch c {
	case MIM:
		return ctot / (0.472 * units.Millimeter * units.Millimeter)
	case Ferroelectric:
		return ctot / (0.102 * units.Millimeter * units.Millimeter)
	case Trench:
		return ctot / (0.082 * units.Millimeter * units.Millimeter)
	default:
		panic(fmt.Sprintf("sc: unknown CapTech %d", int(c)))
	}
}

// String names the technology.
func (c CapTech) String() string {
	switch c {
	case MIM:
		return "MIM"
	case Ferroelectric:
		return "ferroelectric"
	case Trench:
		return "trench"
	default:
		return fmt.Sprintf("CapTech(%d)", int(c))
	}
}

// Params holds the physical design parameters of one SC converter instance.
type Params struct {
	Topo Topology

	Ctot float64 // total fly capacitance (F)
	FSw  float64 // nominal (open-loop) switching frequency (Hz)
	Gtot float64 // total switch conductance (S)
	Dcyc float64 // duty cycle (fraction)

	Interleave int     // number of interleaved phases (ripple reduction only)
	Cap        CapTech // capacitor technology for the area model

	// Parasitic loss model: P_par(f) = f * (KBottomPlate*Ctot*VSwing² + QGate*VGate).
	KBottomPlate float64 // bottom-plate capacitance fraction of Ctot
	VSwing       float64 // bottom-plate voltage swing (V)
	QGate        float64 // total gate charge per cycle (C)
	VGate        float64 // gate drive voltage (V)

	MaxLoad float64 // maximum load current (A)
}

// Default28nm returns the paper's 28 nm 2:1 push-pull converter:
// 8 nF fly capacitance, 50 MHz, 4-way interleaving, 100 mA max load.
// With these values RSSL = 0.3125 Ω, RFSL = 0.513 Ω and
// RSERIES = 0.600 Ω — the paper's quoted output impedance. The
// switch-level simulator (package spice) measures 0.62 Ω for the same
// cell, a 3 % model-vs-simulation gap consistent with Fig. 3.
func Default28nm() Params {
	return Params{
		Topo:         TwoToOne(),
		Ctot:         8 * units.Nanofarad,
		FSw:          50 * units.Megahertz,
		Gtot:         15.6, // total switch conductance; per-switch Ron ≈ 0.51 Ω
		Dcyc:         0.5,
		Interleave:   4,
		Cap:          MIM,
		KBottomPlate: 0.025,                      // bottom-plate fraction of the fly capacitance
		VSwing:       1.0,                        // bottom plates swing by the cell output voltage
		QGate:        40 * units.Picofarad * 1.0, // 40 pC at 1 V gate drive
		VGate:        1.0,
		MaxLoad:      100 * units.Milliampere,
	}
}

// Validate checks parameter sanity.
func (p Params) Validate() error {
	switch {
	case p.Ctot <= 0:
		return fmt.Errorf("sc: Ctot must be positive, got %g", p.Ctot)
	case p.FSw <= 0:
		return fmt.Errorf("sc: FSw must be positive, got %g", p.FSw)
	case p.Gtot <= 0:
		return fmt.Errorf("sc: Gtot must be positive, got %g", p.Gtot)
	case p.Dcyc <= 0 || p.Dcyc > 1:
		return fmt.Errorf("sc: Dcyc must be in (0,1], got %g", p.Dcyc)
	case len(p.Topo.AC) == 0 || len(p.Topo.AR) == 0:
		return fmt.Errorf("sc: topology %q has empty charge-multiplier vectors", p.Topo.Name)
	case p.MaxLoad <= 0:
		return fmt.Errorf("sc: MaxLoad must be positive, got %g", p.MaxLoad)
	}
	return nil
}

// RSSL returns the slow-switching-limit output impedance at frequency f:
// (Σ|ac,i|)² / (Ctot · f)  — Eq. (1) of the paper.
func (p Params) RSSL(f float64) float64 {
	s := p.Topo.SumAC()
	return s * s / (p.Ctot * f)
}

// RFSL returns the fast-switching-limit output impedance:
// (Σ|ar,i|)² / (Gtot · Dcyc)  — Eq. (2) of the paper.
func (p Params) RFSL() float64 {
	s := p.Topo.SumAR()
	return s * s / (p.Gtot * p.Dcyc)
}

// RSeries returns the combined output impedance at frequency f:
// sqrt(RSSL² + RFSL²).
func (p Params) RSeries(f float64) float64 {
	ssl := p.RSSL(f)
	fsl := p.RFSL()
	return math.Sqrt(ssl*ssl + fsl*fsl)
}

// RSeriesNominal returns RSeries at the nominal switching frequency.
func (p Params) RSeriesNominal() float64 { return p.RSeries(p.FSw) }

// ParasiticPower returns the frequency-proportional parasitic loss
// (bottom-plate and gate-drive) at switching frequency f.
func (p Params) ParasiticPower(f float64) float64 {
	perCycle := p.KBottomPlate*p.Ctot*p.VSwing*p.VSwing + p.QGate*p.VGate
	return perCycle * f
}

// ParasiticShuntG returns the shunt conductance across the converter's
// input port (voltage vin) that dissipates exactly ParasiticPower(f),
// which is how the parasitic loss is stamped into the MNA network.
func (p Params) ParasiticShuntG(f, vin float64) float64 {
	if vin == 0 {
		return 0
	}
	return p.ParasiticPower(f) / (vin * vin)
}

// Area returns the converter silicon area (m²), dominated by the fly
// capacitors at the selected technology density.
func (p Params) Area() float64 {
	return p.Ctot / p.Cap.Density()
}

// Control selects the frequency-modulation policy of a converter.
type Control interface {
	// Freq returns the switching frequency for a given load current.
	Freq(p Params, iLoad float64) float64
}

// OpenLoop keeps the switching frequency constant at the nominal value —
// the policy used for all system-level results in the paper.
type OpenLoop struct{}

// Freq returns the nominal frequency regardless of load.
func (OpenLoop) Freq(p Params, _ float64) float64 { return p.FSw }

// ClosedLoop modulates switching frequency proportionally to load current:
// the converter-level policy Fig. 3a validates (the paper leaves its
// system-level use to future work).
type ClosedLoop struct {
	// FloorFraction is the minimum frequency as a fraction of nominal
	// (the modulator cannot stall the clock entirely). Default 0.02.
	FloorFraction float64
}

// Freq returns fSW scaled by the load fraction, clamped to the floor.
func (c ClosedLoop) Freq(p Params, iLoad float64) float64 {
	floor := c.FloorFraction
	if floor <= 0 {
		floor = 0.02
	}
	frac := math.Abs(iLoad) / p.MaxLoad
	return p.FSw * units.Clamp(frac, floor, 1)
}

// OperatingPoint is the evaluated state of a converter at one load level.
type OperatingPoint struct {
	ILoad      float64 // load current (A)
	Freq       float64 // switching frequency used (Hz)
	RSeries    float64 // output impedance at that frequency (Ω)
	VNoLoad    float64 // ideal (no-load) output voltage (V)
	VOut       float64 // loaded output voltage (V)
	VDrop      float64 // output voltage drop (V)
	POut       float64 // power delivered to load (W)
	PCond      float64 // conduction loss (W)
	PParasitic float64 // switching/parasitic loss (W)
	Efficiency float64 // POut / (POut + PCond + PParasitic)
}

// Evaluate computes the operating point of a converter delivering iLoad
// from an input rail vin (so the ideal output is vin·Ratio). iLoad may
// exceed MaxLoad only if the caller checks OverLimit separately.
func Evaluate(p Params, ctrl Control, vin, iLoad float64) OperatingPoint {
	if ctrl == nil {
		ctrl = OpenLoop{}
	}
	f := ctrl.Freq(p, iLoad)
	rs := p.RSeries(f)
	vnl := vin * p.Topo.Ratio
	vout := vnl - iLoad*rs
	pout := vout * iLoad
	pcond := iLoad * iLoad * rs
	ppar := p.ParasiticPower(f)
	den := pout + pcond + ppar
	eff := 0.0
	if den > 0 && pout > 0 {
		eff = pout / den
	}
	return OperatingPoint{
		ILoad:      iLoad,
		Freq:       f,
		RSeries:    rs,
		VNoLoad:    vnl,
		VOut:       vout,
		VDrop:      vnl - vout,
		POut:       pout,
		PCond:      pcond,
		PParasitic: ppar,
		Efficiency: eff,
	}
}

// OverLimit reports whether iLoad exceeds the converter's rated maximum.
// The 1e-9 relative slack keeps a current that a PDN solve puts exactly
// at the rating, up to rounding, within it.
func (p Params) OverLimit(iLoad float64) bool {
	return math.Abs(iLoad) > p.MaxLoad*(1+1e-9)
}
