// Package units provides physical constants, SI unit helpers and tolerant
// floating-point comparison utilities shared by every voltstack module.
//
// All voltstack quantities are plain float64 values in base SI units
// (volts, amperes, ohms, farads, seconds, meters, watts, kelvin). The
// named constants below exist so that configuration code can say
// 200*units.Micrometer instead of 200e-6 and stay self-documenting.
package units

import "math"

// SI scale factors. Multiply a number by one of these to express it in
// base units, e.g. 5 * units.Milliampere.
const (
	Femto = 1e-15
	Pico  = 1e-12
	Nano  = 1e-9
	Micro = 1e-6
	Milli = 1e-3
	Kilo  = 1e3
	Mega  = 1e6
	Giga  = 1e9
)

// Convenience unit aliases (all values in base SI units).
const (
	Millimeter = Milli // meters
	Micrometer = Micro // meters
	Nanometer  = Nano  // meters

	Milliohm = Milli // ohms
	Kiloohm  = Kilo  // ohms

	Milliampere = Milli // amperes
	Microampere = Micro // amperes

	Millivolt = Milli // volts

	Nanofarad  = Nano  // farads
	Picofarad  = Pico  // farads
	Femtofarad = Femto // farads

	Megahertz = Mega // hertz
	Gigahertz = Giga // hertz

	Nanosecond  = Nano  // seconds
	Picosecond  = Pico  // seconds
	Microsecond = Micro // seconds

	Milliwatt = Milli // watts
)

// Physical constants.
const (
	// BoltzmannEV is Boltzmann's constant in electron-volts per kelvin,
	// the unit used by Black's equation activation energies.
	BoltzmannEV = 8.617333262e-5
	// ZeroCelsius is 0 degrees Celsius expressed in kelvin.
	ZeroCelsius = 273.15
)

// CelsiusToKelvin converts a temperature in degrees Celsius to kelvin.
func CelsiusToKelvin(c float64) float64 { return c + ZeroCelsius }

// ApproxEqual reports whether a and b are equal within both an absolute
// tolerance absTol and a relative tolerance relTol (relative to the larger
// magnitude). Either tolerance alone is sufficient.
func ApproxEqual(a, b, absTol, relTol float64) bool {
	diff := math.Abs(a - b)
	if diff <= absTol {
		return true
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= relTol*scale
}

// WithinRel reports whether a and b agree to within relative tolerance rel.
// Zero compares equal only to exactly zero.
func WithinRel(a, b, rel float64) bool {
	if a == b {
		return true
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	return math.Abs(a-b) <= rel*scale
}

// Clamp limits x to the closed interval [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// Lerp linearly interpolates between a (t=0) and b (t=1).
func Lerp(a, b, t float64) float64 { return a + (b-a)*t }
