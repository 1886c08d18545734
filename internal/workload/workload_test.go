package workload

import (
	"math"
	"testing"
	"testing/quick"
)

func TestParsecSuiteComposition(t *testing.T) {
	apps := ParsecApps()
	if len(apps) != 13 {
		t.Fatalf("Parsec 2.0 has 13 applications, got %d", len(apps))
	}
	seen := map[string]bool{}
	for _, a := range apps {
		if seen[a.Name] {
			t.Errorf("duplicate app %q", a.Name)
		}
		seen[a.Name] = true
		if a.MinAct <= 0 || a.MaxAct > 1 || a.MinAct >= a.MaxAct {
			t.Errorf("app %q has invalid bounds [%g, %g]", a.Name, a.MinAct, a.MaxAct)
		}
	}
	for _, name := range []string{"blackscholes", "streamcluster", "x264"} {
		if !seen[name] {
			t.Errorf("missing app %q", name)
		}
	}
}

func TestSamplingDeterministic(t *testing.T) {
	a := ParsecApps()[0]
	s1 := a.Sample(100, 42)
	s2 := a.Sample(100, 42)
	for i := range s1.Acts {
		if s1.Acts[i] != s2.Acts[i] {
			t.Fatal("sampling is not deterministic")
		}
	}
	s3 := a.Sample(100, 43)
	same := true
	for i := range s1.Acts {
		if s1.Acts[i] != s3.Acts[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds should give different populations")
	}
}

func TestAppsGetDistinctStreams(t *testing.T) {
	apps := ParsecApps()
	s1 := apps[1].Sample(50, 7)
	s2 := apps[2].Sample(50, 7)
	// Even with the same seed, per-app offsets must decorrelate streams:
	// compare normalized positions within each app's range.
	identical := 0
	for i := range s1.Acts {
		u1 := (s1.Acts[i] - apps[1].MinAct) / (apps[1].MaxAct - apps[1].MinAct)
		u2 := (s2.Acts[i] - apps[2].MinAct) / (apps[2].MaxAct - apps[2].MinAct)
		if math.Abs(u1-u2) < 1e-12 {
			identical++
		}
	}
	if identical > 5 {
		t.Errorf("%d/50 samples identical across apps — streams not decorrelated", identical)
	}
}

func TestSamplesWithinBounds(t *testing.T) {
	f := func(seed int64) bool {
		for _, a := range ParsecApps() {
			s := a.Sample(200, seed)
			for _, v := range s.Acts {
				if v < a.MinAct || v > a.MaxAct {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

func TestBoxStatsOrdering(t *testing.T) {
	for _, p := range DefaultSuite(3) {
		st := p.Stats()
		if !(st.Min <= st.Q1 && st.Q1 <= st.Median && st.Median <= st.Q3 && st.Q3 <= st.Max) {
			t.Errorf("%s: box stats out of order: %+v", p.App.Name, st)
		}
	}
}

func TestBoxStatsKnownValues(t *testing.T) {
	s := Samples{Acts: []float64{1, 2, 3, 4, 5}}
	st := s.Stats()
	if st.Min != 1 || st.Max != 5 || st.Median != 3 || st.Q1 != 2 || st.Q3 != 4 {
		t.Errorf("stats = %+v", st)
	}
	empty := Samples{}
	if empty.Stats() != (BoxStats{}) {
		t.Error("empty stats should be zero")
	}
}

func TestFig7BlackscholesBestCase(t *testing.T) {
	// Paper: "the best-case application (blackscholes) shows a maximum
	// imbalance of 10% across all its samples."
	suite := DefaultSuite(1)
	best := suite.BestCaseApp()
	if best.App.Name != "blackscholes" {
		t.Errorf("best-case app = %s, want blackscholes", best.App.Name)
	}
	if imb := best.MaxImbalance(); imb < 0.05 || imb > 0.15 {
		t.Errorf("blackscholes max imbalance = %g, want ~0.10", imb)
	}
}

func TestFig7AverageImbalance65Percent(t *testing.T) {
	// Paper: "on average, the applications have a maximum-imbalance ratio
	// of 65%."
	suite := DefaultSuite(1)
	if avg := suite.AverageMaxImbalance(); avg < 0.60 || avg > 0.70 {
		t.Errorf("average max imbalance = %g, want ~0.65", avg)
	}
}

func TestFig7GlobalImbalanceOver90Percent(t *testing.T) {
	// Paper: "the maximum workload imbalance among all samples is more
	// than 90%."
	suite := DefaultSuite(1)
	if g := suite.GlobalMaxImbalance(); g <= 0.90 {
		t.Errorf("global max imbalance = %g, want > 0.90", g)
	}
}

func TestIntraAppVarianceSmallerThanCrossApp(t *testing.T) {
	// Paper: "samples from the same application show much smaller
	// variance" than across applications.
	suite := DefaultSuite(1)
	var medians []float64
	var avgSpread float64
	for _, p := range suite {
		st := p.Stats()
		medians = append(medians, st.Median)
		avgSpread += st.Q3 - st.Q1
	}
	avgSpread /= float64(len(suite))
	minMed, maxMed := medians[0], medians[0]
	for _, m := range medians {
		minMed = math.Min(minMed, m)
		maxMed = math.Max(maxMed, m)
	}
	if crossSpread := maxMed - minMed; avgSpread >= crossSpread {
		t.Errorf("intra-app IQR %g should be well below cross-app median spread %g",
			avgSpread, crossSpread)
	}
}

func TestMaxImbalanceConsistentWithDesign(t *testing.T) {
	suite := DefaultSuite(1)
	for _, p := range suite {
		realized := p.MaxImbalance()
		design := p.App.DesignImbalance()
		if realized > design+1e-9 {
			t.Errorf("%s: realized imbalance %g exceeds design bound %g", p.App.Name, realized, design)
		}
		if realized < design-0.08 {
			t.Errorf("%s: realized imbalance %g far below design %g — population too narrow",
				p.App.Name, realized, design)
		}
	}
}

func TestSuiteSize(t *testing.T) {
	suite := DefaultSuite(1)
	if len(suite) != 13 {
		t.Fatalf("suite size %d", len(suite))
	}
	for _, p := range suite {
		if len(p.Acts) != SamplesPerApp {
			t.Errorf("%s has %d samples, want %d", p.App.Name, len(p.Acts), SamplesPerApp)
		}
	}
}

func TestImbalanceOfConstantPopulation(t *testing.T) {
	s := Samples{Acts: []float64{0.5, 0.5, 0.5}}
	if s.MaxImbalance() != 0 {
		t.Error("constant population must have zero imbalance")
	}
	z := Samples{Acts: []float64{0, 0}}
	if z.MaxImbalance() != 0 {
		t.Error("zero population must not divide by zero")
	}
}
