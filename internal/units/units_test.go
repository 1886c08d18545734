package units

import (
	"math"
	"testing"
	"testing/quick"
)

func TestScaleFactors(t *testing.T) {
	cases := []struct {
		name string
		got  float64
		want float64
	}{
		{"Femto", Femto, 1e-15},
		{"Pico", Pico, 1e-12},
		{"Nano", Nano, 1e-9},
		{"Micro", Micro, 1e-6},
		{"Milli", Milli, 1e-3},
		{"Kilo", Kilo, 1e3},
		{"Mega", Mega, 1e6},
		{"Giga", Giga, 1e9},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("%s = %g, want %g", c.name, c.got, c.want)
		}
	}
}

func TestUnitComposition(t *testing.T) {
	if got := 200 * Micrometer; got != 200e-6 {
		t.Errorf("200um = %g", got)
	}
	if got := 10 * Milliohm; got != 10e-3 {
		t.Errorf("10mohm = %g", got)
	}
	if got := 8 * Nanofarad; got != 8e-9 {
		t.Errorf("8nF = %g", got)
	}
	if got := 50 * Megahertz; got != 50e6 {
		t.Errorf("50MHz = %g", got)
	}
}

func TestTemperatureConversionRoundTrip(t *testing.T) {
	if got := CelsiusToKelvin(100); got != 373.15 {
		t.Errorf("CelsiusToKelvin(100) = %g", got)
	}
}

func TestApproxEqual(t *testing.T) {
	if !ApproxEqual(1.0, 1.0+1e-12, 1e-9, 0) {
		t.Error("abs tolerance failed")
	}
	if !ApproxEqual(1e9, 1e9*(1+1e-10), 0, 1e-9) {
		t.Error("rel tolerance failed")
	}
	if ApproxEqual(1.0, 1.1, 1e-3, 1e-3) {
		t.Error("should not be equal")
	}
	if !ApproxEqual(0, 0, 0, 0) {
		t.Error("zero must equal zero")
	}
}

func TestWithinRel(t *testing.T) {
	if !WithinRel(0, 0, 1e-9) {
		t.Error("0==0")
	}
	if WithinRel(0, 1e-3, 1e-6) {
		t.Error("0 vs nonzero should fail a tight rel check")
	}
	if !WithinRel(100, 100.0001, 1e-5) {
		t.Error("within rel failed")
	}
}

func TestClamp(t *testing.T) {
	cases := []struct{ x, lo, hi, want float64 }{
		{5, 0, 10, 5},
		{-5, 0, 10, 0},
		{15, 0, 10, 10},
		{0, 0, 0, 0},
	}
	for _, c := range cases {
		if got := Clamp(c.x, c.lo, c.hi); got != c.want {
			t.Errorf("Clamp(%g,%g,%g) = %g, want %g", c.x, c.lo, c.hi, got, c.want)
		}
	}
}

func TestClampProperty(t *testing.T) {
	f := func(x, a, b float64) bool {
		if math.IsNaN(x) || math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		lo, hi := math.Min(a, b), math.Max(a, b)
		got := Clamp(x, lo, hi)
		return got >= lo && got <= hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLerp(t *testing.T) {
	if got := Lerp(0, 10, 0.5); got != 5 {
		t.Errorf("Lerp mid = %g", got)
	}
	if got := Lerp(2, 4, 0); got != 2 {
		t.Errorf("Lerp t=0 = %g", got)
	}
	if got := Lerp(2, 4, 1); got != 4 {
		t.Errorf("Lerp t=1 = %g", got)
	}
}

func TestBoltzmannEV(t *testing.T) {
	// kT at 300K should be about 25.85 meV.
	kT := BoltzmannEV * 300
	if !ApproxEqual(kT, 0.02585, 1e-4, 1e-3) {
		t.Errorf("kT(300K) = %g eV", kT)
	}
}
