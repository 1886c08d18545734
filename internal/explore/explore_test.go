package explore

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"voltstack/internal/pdngrid"
)

// smallSpace keeps tests fast: coarse mesh, fewer axes.
func smallSpace() Space {
	s := DefaultSpace()
	s.Params.GridNx, s.Params.GridNy = 16, 16
	s.PadFractions = []float64{0.5}
	s.ConverterCount = []int{2, 8}
	s.TSVs = []pdngrid.TSVTopology{pdngrid.DenseTSV(), pdngrid.FewTSV()}
	return s
}

func TestDesignEnumeration(t *testing.T) {
	s := smallSpace()
	designs := s.Designs()
	// 2 TSVs x 1 fraction x (1 regular + 2 V-S) = 6.
	if len(designs) != 6 {
		t.Fatalf("designs = %d, want 6", len(designs))
	}
	names := map[string]bool{}
	for _, d := range designs {
		if names[d.Name()] {
			t.Errorf("duplicate design %s", d.Name())
		}
		names[d.Name()] = true
	}
}

func TestDesignNames(t *testing.T) {
	d := Design{Kind: pdngrid.Regular, TSV: pdngrid.DenseTSV(), PadPowerFraction: 0.25}
	if got := d.Name(); !strings.Contains(got, "Reg/Dense") || !strings.Contains(got, "25%") {
		t.Errorf("name = %q", got)
	}
	v := Design{Kind: pdngrid.VoltageStacked, TSV: pdngrid.FewTSV(), PadPowerFraction: 1, ConvertersPerCore: 8}
	if got := v.Name(); !strings.Contains(got, "V-S/Few/8conv") {
		t.Errorf("name = %q", got)
	}
}

func TestEvaluateSingleDesign(t *testing.T) {
	s := smallSpace()
	m, err := s.Evaluate(context.Background(), Design{
		Kind:              pdngrid.VoltageStacked,
		TSV:               pdngrid.FewTSV(),
		PadPowerFraction:  0.5,
		ConvertersPerCore: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !m.Feasible {
		t.Error("8 conv/core at 65% should be feasible")
	}
	if m.MaxIRDropPct <= 0 || m.MaxIRDropPct > 20 {
		t.Errorf("noise = %g", m.MaxIRDropPct)
	}
	if m.Efficiency <= 0 || m.Efficiency >= 1 {
		t.Errorf("efficiency = %g", m.Efficiency)
	}
	if m.AreaOverheadPct < 20 {
		t.Errorf("8 converters + Few TSV should cost ~24%% area, got %g", m.AreaOverheadPct)
	}
	if m.OffChipCurrentA <= 0 || m.OffChipCurrentA > 20 {
		t.Errorf("off-chip current = %g A (stacked should be ~8 A)", m.OffChipCurrentA)
	}
}

func TestRunSpace(t *testing.T) {
	s := smallSpace()
	res, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) < 4 {
		t.Fatalf("points = %d", len(res.Points))
	}
	if len(res.Pareto) == 0 || len(res.Pareto) > len(res.Points) {
		t.Fatalf("pareto size = %d of %d", len(res.Pareto), len(res.Points))
	}
	// Lifetimes are normalized to 1 at the best design.
	var maxTSV, maxC4 float64
	for _, m := range res.Points {
		if m.TSVLifetime > maxTSV {
			maxTSV = m.TSVLifetime
		}
		if m.C4Lifetime > maxC4 {
			maxC4 = m.C4Lifetime
		}
	}
	if maxTSV != 1 || maxC4 != 1 {
		t.Errorf("normalization failed: max lifetimes %g, %g", maxTSV, maxC4)
	}
	// No point in the Pareto set is dominated by any other point.
	for _, pi := range res.Pareto {
		for j, b := range res.Points {
			if j != pi && dominates(b, res.Points[pi]) {
				t.Errorf("pareto member %s dominated by %s",
					res.Points[pi].Design.Name(), b.Design.Name())
			}
		}
	}
}

// TestRunWorkerEquivalence is the determinism contract of the parallel
// sweep: ordering, normalization, Pareto set and every float must be
// bit-identical for workers = 1, 2 and 8.
func TestRunWorkerEquivalence(t *testing.T) {
	base := smallSpace()
	base.Params.GridNx, base.Params.GridNy = 8, 8 // tiny mesh: 3 runs stay fast

	var ref *Result
	for _, workers := range []int{1, 2, 8} {
		s := base
		s.Workers = workers
		res, err := s.Run(context.Background())
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if workers == 1 {
			ref = res
			continue
		}
		if !reflect.DeepEqual(res, ref) {
			t.Errorf("workers=%d result differs from serial run", workers)
		}
	}
	if len(ref.Points) == 0 {
		t.Fatal("empty serial reference")
	}
}

// TestRunOnPointCallback is the progress-hook contract: OnPoint fires
// exactly once per enumerated design, with its Designs() index, at every
// worker count — the property the serving layer's checkpointing relies on.
func TestRunOnPointCallback(t *testing.T) {
	for _, workers := range []int{1, 8} {
		s := smallSpace()
		s.Params.GridNx, s.Params.GridNy = 8, 8
		s.Workers = workers
		n := len(s.Designs())
		var calls atomic.Int64
		var mu sync.Mutex
		seen := map[int]bool{}
		s.OnPoint = func(i int, m *Metrics) {
			calls.Add(1)
			if m == nil {
				t.Errorf("workers=%d: OnPoint(%d) got nil metrics", workers, i)
			}
			mu.Lock()
			if seen[i] {
				t.Errorf("workers=%d: OnPoint fired twice for index %d", workers, i)
			}
			seen[i] = true
			mu.Unlock()
		}
		if _, err := s.Run(context.Background()); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got := calls.Load(); got != int64(n) {
			t.Errorf("workers=%d: OnPoint fired %d times, want %d", workers, got, n)
		}
		for i := 0; i < n; i++ {
			if !seen[i] {
				t.Errorf("workers=%d: no OnPoint call for index %d", workers, i)
			}
		}
	}
}

// TestRunPrecomputed proves the resume path: a run whose every point is
// supplied via Precomputed must reproduce the evaluated Result bit for
// bit without touching the models (the chip is nilled out, so any real
// evaluation would fail).
func TestRunPrecomputed(t *testing.T) {
	base := smallSpace()
	base.Params.GridNx, base.Params.GridNy = 8, 8

	// Reference run, capturing raw (pre-normalization) metrics copies.
	var mu sync.Mutex
	raw := map[int]*Metrics{}
	s1 := base
	s1.OnPoint = func(i int, m *Metrics) {
		cp := *m
		mu.Lock()
		raw[i] = &cp
		mu.Unlock()
	}
	ref, err := s1.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) != len(base.Designs()) {
		t.Fatalf("captured %d raw points, want %d", len(raw), len(base.Designs()))
	}

	// Full replay: no design may be evaluated, so break the models.
	s2 := base
	s2.Chip = nil
	s2.Precomputed = copyMetricsMap(raw)
	res, err := s2.Run(context.Background())
	if err != nil {
		t.Fatalf("precomputed run evaluated a design: %v", err)
	}
	if !reflect.DeepEqual(res, ref) {
		t.Error("fully-precomputed run differs from evaluated run")
	}

	// Partial replay (even indices cached, odd ones evaluated) must agree
	// too — the mid-sweep-restart scenario.
	s3 := base
	s3.Precomputed = map[int]*Metrics{}
	for i, m := range copyMetricsMap(raw) {
		if i%2 == 0 {
			s3.Precomputed[i] = m
		}
	}
	res3, err := s3.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res3, ref) {
		t.Error("partially-precomputed run differs from evaluated run")
	}
}

func copyMetricsMap(in map[int]*Metrics) map[int]*Metrics {
	out := make(map[int]*Metrics, len(in))
	for i, m := range in {
		cp := *m
		out[i] = &cp
	}
	return out
}

func TestRunCancelled(t *testing.T) {
	s := smallSpace()
	s.Params.GridNx, s.Params.GridNy = 8, 8
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Run(ctx); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

func TestVSOnParetoFront(t *testing.T) {
	// The paper's thesis in DSE form: at least one voltage-stacked design
	// must be Pareto-efficient (its lifetime and off-chip-current wins
	// cannot all be matched by regular designs).
	res, err := smallSpace().Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	foundVS := false
	for _, pi := range res.Pareto {
		if res.Points[pi].Design.Kind == pdngrid.VoltageStacked {
			foundVS = true
			break
		}
	}
	if !foundVS {
		t.Error("no V-S design on the Pareto front")
	}
}

func TestInfeasibleDesignsDropped(t *testing.T) {
	// 2 conv/core at 100% imbalance violates the converter rating.
	s := smallSpace()
	s.Imbalance = 1.0
	s.ConverterCount = []int{2}
	res, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Dropped == 0 {
		t.Error("expected infeasible designs to be dropped at 100% imbalance")
	}
}

func TestDominates(t *testing.T) {
	a := &Metrics{AreaOverheadPct: 1, MaxIRDropPct: 1, Efficiency: 0.9, TSVLifetime: 1, C4Lifetime: 1}
	b := &Metrics{AreaOverheadPct: 2, MaxIRDropPct: 2, Efficiency: 0.8, TSVLifetime: 0.5, C4Lifetime: 0.5}
	if !dominates(a, b) || dominates(b, a) {
		t.Error("clear domination not detected")
	}
	// Equal points do not dominate each other.
	if dominates(a, a) {
		t.Error("a point must not dominate itself (no strict improvement)")
	}
	// Trade-off points: neither dominates.
	c := &Metrics{AreaOverheadPct: 0.5, MaxIRDropPct: 3, Efficiency: 0.9, TSVLifetime: 1, C4Lifetime: 1}
	if dominates(a, c) || dominates(c, a) {
		t.Error("trade-off points should be incomparable")
	}
}

func TestLowPadVSOnFront(t *testing.T) {
	// With pads as an objective, a V-S design with a small power-pad
	// allocation must appear on the front: it frees pads for I/O at
	// near-unchanged lifetime, the paper's Sec. 5.1 argument.
	s := smallSpace()
	s.PadFractions = []float64{0.25, 1.0}
	res, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, pi := range res.Pareto {
		m := res.Points[pi]
		if m.Design.Kind == pdngrid.VoltageStacked && m.Design.PadPowerFraction <= 0.25 {
			return
		}
	}
	t.Error("no low-pad V-S design on the Pareto front")
}
