// Package power is a compact architecture-level power and area model in the
// role McPAT plays for the paper: it produces per-unit area and power
// numbers for an ARM Cortex-A9-class core and aggregates them into the
// paper's example processor — a 40 nm, 1 GHz, 1 V, 16-core single layer
// with 7.6 W peak power and 44.12 mm² of die area.
//
// The model is analytic and calibrated to those published anchors: dynamic
// power splits across architectural units by fixed activity-weighted
// fractions, leakage is proportional to unit area, and both scale with
// voltage and frequency in the usual first-order way (dynamic ∝ V²·f,
// leakage ∝ V).
package power

import (
	"fmt"
	"math"

	"voltstack/internal/floorplan"
	"voltstack/internal/units"
)

// UnitSpec describes one architectural unit of a core.
type UnitSpec struct {
	Name     string
	AreaFrac float64 // fraction of the core area
	DynFrac  float64 // fraction of the core's peak dynamic power
}

// CoreSpec is the power/area model of one core at its nominal operating
// point.
type CoreSpec struct {
	Name        string
	Units       []UnitSpec
	Area        float64 // core area (m²)
	FClk        float64 // nominal clock (Hz)
	Vdd         float64 // nominal supply (V)
	PeakDynamic float64 // dynamic power at activity 1, nominal V/f (W)
	Leakage     float64 // leakage power at nominal V (W)
}

// CortexA9Like returns a dual-issue in-order ARM-class core calibrated so
// that 16 of them form the paper's example layer: 44.12 mm² and 7.6 W peak
// at 1 GHz / 1 V in 40 nm.
func CortexA9Like() CoreSpec {
	return CoreSpec{
		Name: "cortex-a9-like",
		Units: []UnitSpec{
			{"icache", 0.12, 0.10},
			{"ifu", 0.15, 0.15},
			{"exu", 0.12, 0.18},
			{"fpu", 0.22, 0.15},
			{"lsu", 0.10, 0.15},
			{"dcache", 0.12, 0.12},
			{"rob", 0.07, 0.10},
			{"l2slice", 0.10, 0.05},
		},
		Area:        44.12e-6 / 16, // m²
		FClk:        1 * units.Gigahertz,
		Vdd:         1.0,
		PeakDynamic: 7.6 / 16 * 0.80, // W; 80 % of peak is dynamic at 40 nm
		Leakage:     7.6 / 16 * 0.20, // W
	}
}

// Validate checks that the unit fractions are complete and positive.
func (c CoreSpec) Validate() error {
	if len(c.Units) == 0 {
		return fmt.Errorf("power: core %q has no units", c.Name)
	}
	var areaSum, dynSum float64
	for _, u := range c.Units {
		if u.AreaFrac <= 0 || u.DynFrac < 0 {
			return fmt.Errorf("power: unit %q has invalid fractions", u.Name)
		}
		areaSum += u.AreaFrac
		dynSum += u.DynFrac
	}
	if !units.WithinRel(areaSum, 1, 1e-9) {
		return fmt.Errorf("power: area fractions of %q sum to %g, want 1", c.Name, areaSum)
	}
	if !units.WithinRel(dynSum, 1, 1e-9) {
		return fmt.Errorf("power: dynamic fractions of %q sum to %g, want 1", c.Name, dynSum)
	}
	if c.Area <= 0 || c.FClk <= 0 || c.Vdd <= 0 || c.PeakDynamic <= 0 || c.Leakage < 0 {
		return fmt.Errorf("power: core %q has invalid scalar parameters", c.Name)
	}
	return nil
}

// PeakPower returns dynamic-at-activity-1 plus leakage at nominal V/f.
func (c CoreSpec) PeakPower() float64 { return c.PeakDynamic + c.Leakage }

// Dynamic returns the core dynamic power at the given activity factor
// (0..1) and operating point, scaling as activity · (V/Vnom)² · (f/fnom).
func (c CoreSpec) Dynamic(activity, vdd, f float64) float64 {
	if activity < 0 {
		activity = 0
	}
	vr := vdd / c.Vdd
	return c.PeakDynamic * activity * vr * vr * (f / c.FClk)
}

// Leak returns the leakage power at supply vdd (first-order linear in V)
// at the nominal characterization temperature.
func (c CoreSpec) Leak(vdd float64) float64 {
	return c.Leakage * vdd / c.Vdd
}

// Leakage temperature model: subthreshold leakage grows roughly
// exponentially with temperature; LeakTNom is the characterization
// temperature and LeakT0 the e-folding scale (a 2x increase per ~25 C is
// typical for sub-100nm silicon).
const (
	LeakTNomC = 85.0
	LeakT0C   = 36.0 // 2x per ~25 C
)

// LeakAt returns the leakage power at supply vdd and junction temperature
// tempC, growing exponentially away from the nominal 85 C point. This is
// the coupling term of the electrothermal fixed-point iteration.
func (c CoreSpec) LeakAt(vdd, tempC float64) float64 {
	return c.Leak(vdd) * math.Exp((tempC-LeakTNomC)/LeakT0C)
}

// Total returns dynamic plus leakage at the given operating point.
func (c CoreSpec) Total(activity, vdd, f float64) float64 {
	return c.Dynamic(activity, vdd, f) + c.Leak(vdd)
}

// UnitPowers returns the per-unit total power (W), in the order of
// c.Units, at the given activity and nominal V/f: dynamic splits by
// DynFrac, leakage by AreaFrac.
func (c CoreSpec) UnitPowers(activity float64) []float64 {
	return c.UnitPowersAt(activity, LeakTNomC)
}

// UnitPowersAt is UnitPowers with temperature-dependent leakage at the
// given junction temperature (°C).
func (c CoreSpec) UnitPowersAt(activity, tempC float64) []float64 {
	dyn := c.Dynamic(activity, c.Vdd, c.FClk)
	leak := c.LeakAt(c.Vdd, tempC)
	out := make([]float64, len(c.Units))
	for i, u := range c.Units {
		out[i] = dyn*u.DynFrac + leak*u.AreaFrac
	}
	return out
}

// FloorplanUnits converts the unit list into floorplan placement units.
func (c CoreSpec) FloorplanUnits() []floorplan.Unit {
	out := make([]floorplan.Unit, len(c.Units))
	for i, u := range c.Units {
		out[i] = floorplan.Unit{Name: u.Name, AreaShare: u.AreaFrac}
	}
	return out
}

// Chip aggregates identical cores into one silicon layer arranged in a
// Rows x Cols grid.
type Chip struct {
	Core       CoreSpec
	Rows, Cols int
}

// NewChip returns a chip of rows x cols cores.
func NewChip(core CoreSpec, rows, cols int) (*Chip, error) {
	if err := core.Validate(); err != nil {
		return nil, err
	}
	if rows <= 0 || cols <= 0 {
		return nil, fmt.Errorf("power: invalid core grid %dx%d", rows, cols)
	}
	return &Chip{Core: core, Rows: rows, Cols: cols}, nil
}

// Example16Core returns the paper's 16-core layer (4x4 A9-class cores).
func Example16Core() *Chip {
	ch, err := NewChip(CortexA9Like(), 4, 4)
	if err != nil {
		panic(err) // calibration constants are wrong if this fires
	}
	return ch
}

// NumCores returns Rows*Cols.
func (ch *Chip) NumCores() int { return ch.Rows * ch.Cols }

// Area returns the total die area (m²).
func (ch *Chip) Area() float64 { return float64(ch.NumCores()) * ch.Core.Area }

// PeakPower returns the all-cores-active power at nominal V/f (W).
func (ch *Chip) PeakPower() float64 {
	return float64(ch.NumCores()) * ch.Core.PeakPower()
}

// Die returns the die outline, assuming square core tiles.
func (ch *Chip) Die() floorplan.Rect {
	tile := math.Sqrt(ch.Core.Area)
	return floorplan.Rect{X: 0, Y: 0, W: tile * float64(ch.Cols), H: tile * float64(ch.Rows)}
}

// Floorplan places every core's units on the die.
func (ch *Chip) Floorplan() (*floorplan.Floorplan, error) {
	return floorplan.Tile(ch.Die(), ch.Rows, ch.Cols, ch.Core.FloorplanUnits(), "core")
}

// PowerMap returns the per-block power values matching Floorplan().Blocks
// for the given per-core activity factors (length NumCores), at nominal
// V/f and characterization temperature.
func (ch *Chip) PowerMap(activities []float64) ([]float64, error) {
	temps := make([]float64, ch.NumCores())
	for i := range temps {
		temps[i] = LeakTNomC
	}
	return ch.PowerMapAt(activities, temps)
}

// PowerMapAt is PowerMap with per-core junction temperatures (°C), the
// input to an electrothermal fixed-point iteration.
func (ch *Chip) PowerMapAt(activities, tempsC []float64) ([]float64, error) {
	if len(activities) != ch.NumCores() {
		return nil, fmt.Errorf("power: need %d activities, got %d", ch.NumCores(), len(activities))
	}
	if len(tempsC) != ch.NumCores() {
		return nil, fmt.Errorf("power: need %d temperatures, got %d", ch.NumCores(), len(tempsC))
	}
	nu := len(ch.Core.Units)
	out := make([]float64, 0, ch.NumCores()*nu)
	for i, a := range activities {
		if a < 0 || a > 1 {
			return nil, fmt.Errorf("power: activity %g out of [0,1]", a)
		}
		out = append(out, ch.Core.UnitPowersAt(a, tempsC[i])...)
	}
	return out, nil
}

// LayerPower returns the total layer power for a uniform activity.
func (ch *Chip) LayerPower(activity float64) float64 {
	return float64(ch.NumCores()) * ch.Core.Total(activity, ch.Core.Vdd, ch.Core.FClk)
}

// ImbalancePowers returns (high, low) layer powers for the paper's
// interleaved benchmark: high layers fully active, low layers with
// imbalance·100 % less dynamic power (leakage always present).
// imbalance = 1 means the low layers are idle (leakage only).
func (ch *Chip) ImbalancePowers(imbalance float64) (high, low float64) {
	high = ch.LayerPower(1)
	low = ch.LayerPower(1 - units.Clamp(imbalance, 0, 1))
	return high, low
}
