package telemetry

import (
	"sync"
	"testing"
)

// TestReportResidualIteration numbers a residual timeline by solver step:
// verbatim when nothing was dropped, and past the ring's head shifted by
// the dropped count when the middle was elided.
func TestReportResidualIteration(t *testing.T) {
	full := &ConvergenceReport{Residuals: make([]float64, 203)}
	for i := range full.Residuals {
		if got := full.ResidualIteration(i); got != i {
			t.Fatalf("nothing dropped: entry %d numbered %d", i, got)
		}
	}
	const dropped = 700
	ring := &ConvergenceReport{Residuals: make([]float64, 288), ResidualsDropped: dropped}
	for i, want := range map[int]int{
		0:                   0,
		ResidualHeadLen - 1: ResidualHeadLen - 1,
		ResidualHeadLen:     ResidualHeadLen + dropped,
		143:                 143 + dropped,
		287:                 287 + dropped,
	} {
		if got := ring.ResidualIteration(i); got != want {
			t.Errorf("middle dropped: entry %d numbered %d, want %d", i, got, want)
		}
	}
}

// permutations calls f with every ordering of xs.
func permutations(xs []*ConvergenceReport, f func([]*ConvergenceReport)) {
	var rec func(k int)
	rec = func(k int) {
		if k == len(xs) {
			f(xs)
			return
		}
		for i := k; i < len(xs); i++ {
			xs[k], xs[i] = xs[i], xs[k]
			rec(k + 1)
			xs[k], xs[i] = xs[i], xs[k]
		}
	}
	rec(0)
}

// TestHardestReportOrderIndependent offers the same five reports in every
// order: two tie on iterations and are split by the condition estimate,
// and one offer is nil. The holder keeps the same report every time, and
// a failed report beats a converged one whichever comes first.
func TestHardestReportOrderIndependent(t *testing.T) {
	hardest := &ConvergenceReport{Iterations: 55, CondEstimate: 650, FinalResidual: 8e-13}
	offers := []*ConvergenceReport{
		{Iterations: 40, CondEstimate: 900, FinalResidual: 9e-13},
		{Iterations: 55, CondEstimate: 300, FinalResidual: 9e-13},
		hardest,
		{Iterations: 12},
		nil,
	}
	n := 0
	permutations(offers, func(order []*ConvergenceReport) {
		n++
		var h HardestReport
		for _, r := range order {
			h.Offer(r)
		}
		if got := h.Load(); got != hardest {
			t.Fatalf("order %d kept %+v, want %+v", n, got, hardest)
		}
	})
	if n != 120 {
		t.Fatalf("tried %d orders, want 120", n)
	}

	// Past κ, the larger final residual wins; a full tie keeps the report
	// held.
	var h HardestReport
	first := &ConvergenceReport{Iterations: 55, CondEstimate: 650, FinalResidual: 9e-13}
	h.Offer(hardest)
	h.Offer(first)
	h.Offer(&ConvergenceReport{Iterations: 55, CondEstimate: 650, FinalResidual: 9e-13})
	if got := h.Load(); got != first {
		t.Errorf("kept %+v, want the first of the two reports with the larger final residual", got)
	}

	// A failed solve outranks every converged one, however many more
	// iterations the converged one took, in either offer order.
	failed := &ConvergenceReport{Iterations: 2, FinalResidual: 1e-3}
	converged := &ConvergenceReport{Iterations: 400, CondEstimate: 1e4, FinalResidual: 1e-13, Converged: true}
	for _, order := range [][]*ConvergenceReport{{failed, converged}, {converged, failed}} {
		var h HardestReport
		for _, r := range order {
			h.Offer(r)
		}
		if got := h.Load(); got != failed {
			t.Errorf("offers %+v, %+v kept %+v, want the failed report", order[0], order[1], got)
		}
	}

	var empty *HardestReport
	empty.Offer(hardest)
	if empty.Load() != nil {
		t.Error("a nil holder kept a report")
	}
}

// TestHardestReportConcurrentOffers has 8 goroutines offer at once; the
// holder keeps the hardest report whatever the interleaving. Run it under
// the race detector.
func TestHardestReportConcurrentOffers(t *testing.T) {
	const goroutines, perG = 8, 200
	var h HardestReport
	var wg sync.WaitGroup
	want := &ConvergenceReport{Iterations: goroutines * perG, CondEstimate: 1}
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				it := g*perG + i + 1
				if it == goroutines*perG {
					h.Offer(want)
					continue
				}
				h.Offer(&ConvergenceReport{Iterations: it, CondEstimate: float64(it)})
				h.Offer(nil)
			}
		}()
	}
	wg.Wait()
	if got := h.Load(); got != want {
		t.Fatalf("kept %+v, want %+v", got, want)
	}
}
