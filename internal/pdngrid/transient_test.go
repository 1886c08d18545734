package pdngrid

import (
	"math"
	"testing"

	"voltstack/internal/units"
)

// stepsOver returns the step count that spans window at tc's step.
func stepsOver(tc TransientConfig, window float64) int {
	return int(math.Round(window / tc.DT))
}

// fastTransient is DefaultTransient over a 12.5 ns window.
func fastTransient() TransientConfig {
	tc := DefaultTransient()
	tc.Steps = stepsOver(tc, 12.5*units.Nanosecond)
	return tc
}

func TestTransientConfigValidation(t *testing.T) {
	good := DefaultTransient()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	muts := []func(*TransientConfig){
		func(c *TransientConfig) { c.DT = 0 },
		func(c *TransientConfig) { c.Steps = 0 },
		func(c *TransientConfig) { c.DecapPerArea = -1 },
		func(c *TransientConfig) { c.PkgL = -1 },
		func(c *TransientConfig) { c.StepActivity = 1.5 },
		func(c *TransientConfig) { c.RestActivity = -0.1 },
	}
	for i, m := range muts {
		c := good
		m(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d not caught", i)
		}
	}
}

func TestTransientFirstDroopExceedsSettled(t *testing.T) {
	p, err := New(regularCfg(4, DenseTSV()))
	if err != nil {
		t.Fatal(err)
	}
	tc := fastTransient()
	r, err := p.SolveTransient(tc)
	if err != nil {
		t.Fatal(err)
	}
	if r.WorstDroopFrac <= r.FinalDroopFrac {
		t.Errorf("first droop %g should exceed settled droop %g (inductive kick)",
			r.WorstDroopFrac, r.FinalDroopFrac)
	}
	if r.WorstDroopFrac <= 0 || r.WorstDroopFrac > 0.5 {
		t.Errorf("implausible worst droop %g", r.WorstDroopFrac)
	}
	if len(r.Times) != len(r.Droop) || len(r.Times) != tc.Steps+1 {
		t.Errorf("waveform lengths: %d times, %d droops", len(r.Times), len(r.Droop))
	}
}

func TestTransientVSBeatsRegularOnFirstDroop(t *testing.T) {
	// The extension result: because the V-S stack draws ~1/N the off-chip
	// current, its load-step di/dt through the package inductance — and
	// hence its first droop — is far below the regular PDN's.
	tc := fastTransient()
	reg, err := New(regularCfg(4, DenseTSV()))
	if err != nil {
		t.Fatal(err)
	}
	rr, err := reg.SolveTransient(tc)
	if err != nil {
		t.Fatal(err)
	}
	vs, err := New(vsCfg(4, 8))
	if err != nil {
		t.Fatal(err)
	}
	rv, err := vs.SolveTransient(tc)
	if err != nil {
		t.Fatal(err)
	}
	if rv.WorstDroopFrac >= rr.WorstDroopFrac/2 {
		t.Errorf("V-S first droop %g should be well below regular %g",
			rv.WorstDroopFrac, rr.WorstDroopFrac)
	}
}

func TestTransientMoreDecapLessDroop(t *testing.T) {
	p, err := New(regularCfg(3, SparseTSV()))
	if err != nil {
		t.Fatal(err)
	}
	small := fastTransient()
	big := small
	big.DecapPerArea *= 5
	rs, err := p.SolveTransient(small)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := p.SolveTransient(big)
	if err != nil {
		t.Fatal(err)
	}
	if rb.WorstDroopFrac >= rs.WorstDroopFrac {
		t.Errorf("5x decap should shrink droop: %g -> %g", rs.WorstDroopFrac, rb.WorstDroopFrac)
	}
}

func TestTransientSettlesTowardDCLevel(t *testing.T) {
	// With generous damping, the settled droop approaches the static
	// solve's IR drop for the same (full) activity. A raised package
	// resistance damps the package-LC ringing well within the run.
	cfg := regularCfg(2, DenseTSV())
	cfg.Params.PkgR = 2e-3
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tc := fastTransient()
	tc.Steps = stepsOver(tc, 150*units.Nanosecond)
	rt, err := p.SolveTransient(tc)
	if err != nil {
		t.Fatal(err)
	}
	dc, err := p.Solve(UniformActivities(2, 16, 1))
	if err != nil {
		t.Fatal(err)
	}
	// The DC metric is a max over all cells while the transient probes
	// core centers; require agreement within a factor tolerance.
	if !units.ApproxEqual(rt.FinalDroopFrac, dc.MaxIRDropFrac, 0.01, 0.5) {
		t.Errorf("settled droop %g vs DC IR drop %g", rt.FinalDroopFrac, dc.MaxIRDropFrac)
	}
}

func TestTransientNoEventNoDroop(t *testing.T) {
	// Rest == Step: nothing happens; droop stays at the DC level.
	p, err := New(regularCfg(2, DenseTSV()))
	if err != nil {
		t.Fatal(err)
	}
	tc := fastTransient()
	tc.RestActivity, tc.StepActivity = 1, 1
	tc.Steps = stepsOver(tc, 5*units.Nanosecond)
	r, err := p.SolveTransient(tc)
	if err != nil {
		t.Fatal(err)
	}
	// A sub-0.5% residual ripple is tolerated: the DC init models the
	// package inductor as a tiny resistor, so the first steps re-settle.
	if !units.ApproxEqual(r.WorstDroopFrac, r.FinalDroopFrac, 5e-4, 5e-3) {
		t.Errorf("flat event should not ring: worst %g vs final %g",
			r.WorstDroopFrac, r.FinalDroopFrac)
	}
}
