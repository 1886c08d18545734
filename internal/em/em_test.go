package em

import (
	"math"
	"testing"
	"testing/quick"

	"voltstack/internal/units"
)

func TestBlackEquationScaling(t *testing.T) {
	p := DefaultC4()
	tK := units.CelsiusToKelvin(85)
	t1 := p.MTTF(0.05, tK)
	t2 := p.MTTF(0.10, tK)
	// Doubling current divides MTTF by 2^n.
	want := t1 / math.Pow(2, p.N)
	if !units.WithinRel(t2, want, 1e-9) {
		t.Errorf("MTTF(2I) = %g, want %g", t2, want)
	}
}

func TestBlackTemperatureAcceleration(t *testing.T) {
	p := DefaultTSV()
	cold := p.MTTF(0.01, units.CelsiusToKelvin(60))
	hot := p.MTTF(0.01, units.CelsiusToKelvin(100))
	if hot >= cold {
		t.Errorf("hotter conductor must fail sooner: %g vs %g", hot, cold)
	}
	// Arrhenius ratio check.
	k := units.BoltzmannEV
	want := math.Exp(p.Ea/(k*units.CelsiusToKelvin(60))) / math.Exp(p.Ea/(k*units.CelsiusToKelvin(100)))
	if !units.WithinRel(cold/hot, want, 1e-9) {
		t.Errorf("acceleration factor = %g, want %g", cold/hot, want)
	}
}

func TestZeroCurrentNeverFails(t *testing.T) {
	p := DefaultC4()
	if !math.IsInf(p.MTTF(0, 358), 1) {
		t.Error("zero current should give infinite MTTF")
	}
}

func TestNegativeCurrentUsesMagnitude(t *testing.T) {
	p := DefaultC4()
	if p.MTTF(-0.05, 358) != p.MTTF(0.05, 358) {
		t.Error("MTTF must depend on |I|")
	}
}

func TestLognormalCDFBasics(t *testing.T) {
	if got := LognormalCDF(100, 100, 0.4); !units.ApproxEqual(got, 0.5, 1e-12, 1e-12) {
		t.Errorf("CDF at median = %g, want 0.5", got)
	}
	if LognormalCDF(0, 100, 0.4) != 0 {
		t.Error("CDF at t=0 must be 0")
	}
	if LognormalCDF(-5, 100, 0.4) != 0 {
		t.Error("CDF at negative t must be 0")
	}
	if LognormalCDF(50, math.Inf(1), 0.4) != 0 {
		t.Error("infinite median never fails")
	}
	if lo, hi := LognormalCDF(10, 100, 0.4), LognormalCDF(1000, 100, 0.4); lo >= 0.5 || hi <= 0.5 {
		t.Errorf("CDF not ordered around the median: %g, %g", lo, hi)
	}
}

func TestLognormalCDFMonotone(t *testing.T) {
	f := func(aRaw, bRaw float64) bool {
		a := 1 + math.Abs(math.Mod(aRaw, 1000))
		b := 1 + math.Abs(math.Mod(bRaw, 1000))
		if a > b {
			a, b = b, a
		}
		return LognormalCDF(a, 100, 0.4) <= LognormalCDF(b, 100, 0.4)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSingleConductorGroupMedianIsT50(t *testing.T) {
	g := NewGroup(0.4)
	g.AddT50(1234)
	life, err := g.MedianLifetime()
	if err != nil {
		t.Fatal(err)
	}
	if !units.WithinRel(life, 1234, 1e-6) {
		t.Errorf("single-conductor lifetime = %g, want 1234", life)
	}
}

func TestGroupWeakestLinkEffect(t *testing.T) {
	// A group of identical conductors fails strictly earlier than any one
	// of them, and larger groups fail earlier than smaller ones.
	lifeFor := func(n int) float64 {
		g := NewGroup(0.4)
		for i := 0; i < n; i++ {
			g.AddT50(1000)
		}
		life, err := g.MedianLifetime()
		if err != nil {
			t.Fatal(err)
		}
		return life
	}
	l1, l10, l100 := lifeFor(1), lifeFor(10), lifeFor(100)
	if !(l100 < l10 && l10 < l1) {
		t.Errorf("weakest-link ordering violated: %g, %g, %g", l1, l10, l100)
	}
	if l1 <= 999 || l1 >= 1001 {
		t.Errorf("single conductor = %g, want ~1000", l1)
	}
}

func TestGroupIdenticalConductorsAnalytic(t *testing.T) {
	// For n identical conductors, P(t) = 1-(1-F(t))^n = 0.5 at
	// F = 1 - 0.5^(1/n); invert the lognormal for the exact answer.
	const n = 64
	const t50 = 1000.0
	const sigma = 0.4
	g := NewGroup(sigma)
	for i := 0; i < n; i++ {
		g.AddT50(t50)
	}
	life, err := g.MedianLifetime()
	if err != nil {
		t.Fatal(err)
	}
	fTarget := 1 - math.Pow(0.5, 1.0/n)
	// Invert Φ via bisection on the standard normal.
	lo, hi := -10.0, 10.0
	for i := 0; i < 100; i++ {
		mid := (lo + hi) / 2
		if 0.5*math.Erfc(-mid/math.Sqrt2) < fTarget {
			lo = mid
		} else {
			hi = mid
		}
	}
	want := t50 * math.Exp(sigma*(lo+hi)/2)
	if !units.WithinRel(life, want, 1e-4) {
		t.Errorf("group lifetime = %g, want %g", life, want)
	}
}

func TestGroupDominatedByWeakest(t *testing.T) {
	g := NewGroup(0.4)
	g.AddT50(100)
	for i := 0; i < 50; i++ {
		g.AddT50(1e6)
	}
	life, err := g.MedianLifetime()
	if err != nil {
		t.Fatal(err)
	}
	if !units.WithinRel(life, 100, 0.01) {
		t.Errorf("lifetime = %g, should be dominated by the weak conductor at 100", life)
	}
}

func TestGroupIgnoresUnstressed(t *testing.T) {
	g := NewGroup(0.4)
	g.AddT50(500)
	g.AddT50(math.Inf(1))
	g.AddT50(math.Inf(1))
	life, err := g.MedianLifetime()
	if err != nil {
		t.Fatal(err)
	}
	if !units.WithinRel(life, 500, 1e-6) {
		t.Errorf("lifetime = %g, want 500", life)
	}
}

func TestEmptyGroupError(t *testing.T) {
	g := NewGroup(0.4)
	if _, err := g.MedianLifetime(); err == nil {
		t.Error("empty group should error")
	}
	g.AddT50(math.Inf(1))
	if _, err := g.MedianLifetime(); err == nil {
		t.Error("group with only unstressed conductors should error")
	}
}

func TestFailureProbMonotoneAndBounded(t *testing.T) {
	g := NewGroup(0.4)
	for _, t50 := range []float64{100, 300, 1000, 5000} {
		g.AddT50(t50)
	}
	prev := -1.0
	for _, tt := range []float64{1, 10, 50, 100, 500, 1000, 1e4, 1e6} {
		p := g.FailureProb(tt)
		if p < 0 || p > 1 {
			t.Errorf("P(%g) = %g out of [0,1]", tt, p)
		}
		if p < prev {
			t.Errorf("P not monotone at %g", tt)
		}
		prev = p
	}
	if p := g.FailureProb(1e9); p < 0.999999 {
		t.Errorf("P(∞) = %g, want →1", p)
	}
}

func TestLargeGroupNoUnderflow(t *testing.T) {
	// 100k conductors with tiny individual failure probabilities: the
	// log-space product must not lose the aggregate hazard.
	g := NewGroup(0.4)
	for i := 0; i < 100000; i++ {
		g.AddT50(1e6)
	}
	p := g.FailureProb(1e4) // each Fi is tiny here
	if p <= 0 {
		t.Error("aggregate failure probability lost to underflow")
	}
	life, err := g.MedianLifetime()
	if err != nil {
		t.Fatal(err)
	}
	if life >= 1e6 || life <= 0 {
		t.Errorf("lifetime = %g, must be well below the common median", life)
	}
}

func TestLifetimeAtProbOrdering(t *testing.T) {
	g := NewGroup(0.4)
	for _, t50 := range []float64{200, 400, 800} {
		g.AddT50(t50)
	}
	t10, err := g.LifetimeAtProb(0.1)
	if err != nil {
		t.Fatal(err)
	}
	t90, err := g.LifetimeAtProb(0.9)
	if err != nil {
		t.Fatal(err)
	}
	if t10 >= t90 {
		t.Errorf("quantile ordering violated: %g >= %g", t10, t90)
	}
	if _, err := g.LifetimeAtProb(0); err == nil {
		t.Error("prob=0 should be rejected")
	}
	if _, err := g.LifetimeAtProb(1); err == nil {
		t.Error("prob=1 should be rejected")
	}
}

func TestHigherCurrentShortensGroupLifetime(t *testing.T) {
	p := DefaultTSV()
	tK := units.CelsiusToKelvin(85)
	build := func(i float64) float64 {
		g := NewGroup(p.SigmaLog)
		for k := 0; k < 32; k++ {
			g.AddConductor(p, i, tK)
		}
		life, err := g.MedianLifetime()
		if err != nil {
			t.Fatal(err)
		}
		return life
	}
	if lo, hi := build(0.02), build(0.005); lo >= hi {
		t.Errorf("4x current should shorten lifetime: %g vs %g", lo, hi)
	}
}

func TestLifetimeRatioFollowsBlackExponent(t *testing.T) {
	// For two identical arrays at currents I and r·I, the group lifetime
	// ratio must be exactly r^n (σ and the group structure cancel).
	p := DefaultC4()
	tK := 358.0
	ratio := 3.0
	build := func(i float64) float64 {
		g := NewGroup(p.SigmaLog)
		for k := 0; k < 64; k++ {
			g.AddConductor(p, i, tK)
		}
		life, err := g.MedianLifetime()
		if err != nil {
			t.Fatal(err)
		}
		return life
	}
	got := build(0.01) / build(0.01*ratio)
	want := math.Pow(ratio, p.N)
	if !units.WithinRel(got, want, 1e-3) {
		t.Errorf("lifetime ratio = %g, want %g", got, want)
	}
}

func TestValidateBlackParams(t *testing.T) {
	good := DefaultC4()
	if err := good.Validate(); err != nil {
		t.Error(err)
	}
	bad := good
	bad.N = 0
	if err := bad.Validate(); err == nil {
		t.Error("N=0 not caught")
	}
	bad = good
	bad.SigmaLog = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative sigma not caught")
	}
}
