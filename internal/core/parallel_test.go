package core

import (
	"reflect"
	"testing"

	"voltstack/internal/telemetry"
)

// tinyStudy shrinks the mesh and stack so a figure driver runs in
// milliseconds; equivalence tests run each driver three times.
func tinyStudy() *Study {
	s := NewStudy()
	s.Params.GridNx, s.Params.GridNy = 8, 8
	s.MaxLayers = 4
	return s
}

// TestHeadlinesWorkerEquivalence is the determinism contract of the
// parallel figure drivers: the full Headlines summary — which fans out
// Fig. 5a, Fig. 5b, the imbalance sweep and the dense reference solve
// concurrently — must be bit-identical for workers = 1, 2 and 8.
func TestHeadlinesWorkerEquivalence(t *testing.T) {
	var ref *Headlines
	for _, workers := range []int{1, 2, 8} {
		s := tinyStudy()
		s.Workers = workers
		h, err := s.Headlines()
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if workers == 1 {
			ref = h
			continue
		}
		if !reflect.DeepEqual(h, ref) {
			t.Errorf("workers=%d Headlines differ from serial run:\n got %+v\nwant %+v", workers, h, ref)
		}
	}
}

// TestEngineBuildsWorkerEquivalence: every PDN builds its one engine
// however many workers solve it, so Fig. 6 and Headlines build as many
// engines at workers 2 and 8 as at 1.
func TestEngineBuildsWorkerEquivalence(t *testing.T) {
	builds := telemetry.NewCounter("pdngrid_engine_builds_total")
	for _, name := range []string{"fig6", "headlines"} {
		var ref int64
		for _, workers := range []int{1, 2, 8} {
			s := tinyStudy()
			s.Workers = workers
			before := builds.Value()
			if _, err := runDriver(s, name); err != nil {
				t.Fatalf("%s workers=%d: %v", name, workers, err)
			}
			n := builds.Value() - before
			if workers == 1 {
				ref = n
			} else if n != ref {
				t.Errorf("%s built %d engines at workers=%d, %d at workers=1", name, n, workers, ref)
			}
		}
	}
}

// TestFig5aWorkerEquivalence checks the flattened scenario × layer grid
// reassembles into the same series for every worker count.
func TestFig5aWorkerEquivalence(t *testing.T) {
	var ref *Fig5
	for _, workers := range []int{1, 2, 8} {
		s := tinyStudy()
		s.Workers = workers
		fig, err := s.Fig5a()
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if workers == 1 {
			ref = fig
			continue
		}
		if !reflect.DeepEqual(fig, ref) {
			t.Errorf("workers=%d Fig5a differs from serial run", workers)
		}
	}
	if len(ref.Series) != 4 {
		t.Fatalf("fig5a series = %d, want 4", len(ref.Series))
	}
	for _, sr := range ref.Series {
		if len(sr.Values) != len(ref.Layers) {
			t.Fatalf("series %q has %d values for %d layers", sr.Label, len(sr.Values), len(ref.Layers))
		}
	}
}

// TestVSSweepWorkerEquivalence checks the shared-PDN imbalance sweep.
func TestVSSweepWorkerEquivalence(t *testing.T) {
	imbs := []float64{0, 0.3, 0.65, 1.0}
	var ref []VSSweepPoint
	for _, workers := range []int{1, 2, 8} {
		s := tinyStudy()
		s.Workers = workers
		pts, err := s.VSSweep(4, imbs)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if workers == 1 {
			ref = pts
			continue
		}
		if !reflect.DeepEqual(pts, ref) {
			t.Errorf("workers=%d VSSweep differs from serial run", workers)
		}
	}
}
