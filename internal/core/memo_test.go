package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"voltstack/internal/parallel"
	"voltstack/internal/pdngrid"
	"voltstack/internal/telemetry"
)

// sameBits reports whether a and b print identically under %#v. Floats
// print in their shortest round-trip form, so this compares every float
// bit for bit, and NaN equals NaN: Fig. 6 and Fig. 8 mark dropped points
// with NaN, where reflect.DeepEqual would always report a difference.
func sameBits(a, b any) bool {
	return fmt.Sprintf("%#v", a) == fmt.Sprintf("%#v", b)
}

// runDriver runs one figure driver by name, so a test can run it on a
// memo-warmed study and on a fresh one.
func runDriver(s *Study, name string) (any, error) {
	switch name {
	case "fig5a":
		return s.Fig5a()
	case "fig5b":
		return s.Fig5b()
	case "fig6":
		return s.Fig6()
	case "fig8":
		return s.Fig8()
	case "headlines":
		return s.Headlines()
	}
	return nil, fmt.Errorf("no driver %q", name)
}

// fresh runs a driver on a new serial tinyStudy, after edit.
func fresh(t *testing.T, name string, edit func(*Study)) any {
	t.Helper()
	s := tinyStudy()
	s.Workers = 1
	if edit != nil {
		edit(s)
	}
	v, err := runDriver(s, name)
	if err != nil {
		t.Fatalf("fresh %s: %v", name, err)
	}
	return v
}

// TestMemoSharedSolves checks that the figures share their PDN points:
// after Fig. 5a, 5b and 6, Headlines solves only the two sweep points off
// Fig. 6's imbalance axis, and Fig. 8 (a subset of Fig. 6) solves
// nothing. Every result still equals a fresh study's, bit for bit.
func TestMemoSharedSolves(t *testing.T) {
	solves := telemetry.NewCounter("pdngrid_solves_total")
	s := tinyStudy()
	for _, tc := range []struct {
		name   string
		solves int64 // -1: not checked
	}{
		{"fig5a", -1}, {"fig5b", -1}, {"fig6", -1},
		{"headlines", 2},
		{"fig8", 0},
	} {
		before := solves.Value()
		got, err := runDriver(s, tc.name)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if n := solves.Value() - before; tc.solves >= 0 && n != tc.solves {
			t.Errorf("%s made %d PDN solves, want %d", tc.name, n, tc.solves)
		}
		if want := fresh(t, tc.name, nil); !sameBits(got, want) {
			t.Errorf("%s differs from a fresh study's:\n got %#v\nwant %#v", tc.name, got, want)
		}
	}
}

// TestMemoSharedTransient checks that ext-decap-split's 8-converter row,
// which spends no area on decap and so is ext-transient's V-S run, reuses
// that run: after ext-transient, ext-decap-split compiles one transient
// run fewer than on a fresh study. Both still render as a fresh study's
// do.
func TestMemoSharedTransient(t *testing.T) {
	compiles := telemetry.NewCounter("circuit_prepared_compiles_total")
	run := func(s *Study, name string) (string, int64) {
		t.Helper()
		before := compiles.Value()
		out, err := RunExperiment(s, name, false)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return out, compiles.Value() - before
	}

	vs, err := tinyStudy().VoltageStackedPDN(4, 8, pdngrid.FewTSV(), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	before := compiles.Value()
	if _, err := vs.SolveTransient(pdngrid.DefaultTransient()); err != nil {
		t.Fatal(err)
	}
	perRun := compiles.Value() - before
	if perRun == 0 {
		t.Fatal("a transient run compiled no engine")
	}

	s := tinyStudy()
	names := []string{"ext-transient", "ext-decap-split"}
	shared := map[string]string{}
	var sharedCompiles int64
	for _, name := range names {
		shared[name], sharedCompiles = run(s, name)
	}
	for _, name := range names {
		out, n := run(tinyStudy(), name)
		if out != shared[name] {
			t.Errorf("%s after the other driver differs from a fresh study's:\n%s\nwant\n%s", name, shared[name], out)
		}
		if name == "ext-decap-split" && sharedCompiles != n-perRun {
			t.Errorf("ext-decap-split after ext-transient compiled %d engines, want %d (fresh %d, less one transient run's %d)",
				sharedCompiles, n-perRun, n, perRun)
		}
	}
}

// TestMemoConcurrentDrivers runs three drivers that share points at the
// same time on one study; single-flight keeps each equal to a fresh
// serial run.
func TestMemoConcurrentDrivers(t *testing.T) {
	s := tinyStudy()
	s.Workers = 2
	names := []string{"fig6", "fig8", "headlines"}
	got := make([]any, len(names))
	tasks := make([]func() error, len(names))
	for i, name := range names {
		tasks[i] = func() (err error) { got[i], err = runDriver(s, name); return }
	}
	if err := parallel.Go(context.Background(), parallel.NewPool(len(tasks)), tasks...); err != nil {
		t.Fatal(err)
	}
	for i, name := range names {
		if want := fresh(t, name, nil); !sameBits(got[i], want) {
			t.Errorf("concurrent %s differs from a fresh serial run", name)
		}
	}
}

// TestMemoKeying changes a Study field between calls: the memo must key
// on it, so the second call equals a fresh study with the new value (and
// differs from the first call, or the edit proves nothing).
func TestMemoKeying(t *testing.T) {
	for _, tc := range []struct {
		field, driver string
		edit          func(*Study)
	}{
		{"MaxLayers", "fig6", func(s *Study) { s.MaxLayers = 2 }},
		{"Converter.FSw", "fig6", func(s *Study) { s.Converter.FSw *= 2 }},
		{"EMTsv", "fig5a", func(s *Study) { s.EMTsv.N *= 1.5 }},
	} {
		t.Run(tc.field, func(t *testing.T) {
			s := tinyStudy()
			before, err := runDriver(s, tc.driver)
			if err != nil {
				t.Fatal(err)
			}
			tc.edit(s)
			after, err := runDriver(s, tc.driver)
			if err != nil {
				t.Fatal(err)
			}
			if sameBits(after, before) {
				t.Fatalf("changing %s did not change %s", tc.field, tc.driver)
			}
			if want := fresh(t, tc.driver, tc.edit); !sameBits(after, want) {
				t.Errorf("%s after changing %s differs from a fresh study's", tc.driver, tc.field)
			}
		})
	}
}

// TestMemoDropsErrors checks that a failed computation is not kept: the
// next call of the key computes again, and a success is then kept.
func TestMemoDropsErrors(t *testing.T) {
	var s Study // the memo works at its zero value
	key := []any{"test", 1}
	calls := 0
	fail := errors.New("transient failure")
	f := func() (int, error) {
		calls++
		if calls == 1 {
			return 0, fail
		}
		return 42, nil
	}
	if _, err := memo(&s, key, f); !errors.Is(err, fail) {
		t.Fatalf("first call: err = %v, want %v", err, fail)
	}
	for i := 0; i < 2; i++ {
		v, err := memo(&s, key, f)
		if err != nil || v != 42 {
			t.Fatalf("call %d: got %d, %v; want 42, nil", i+2, v, err)
		}
	}
	if calls != 2 {
		t.Errorf("f ran %d times, want 2 (one failure, one kept success)", calls)
	}
}

// TestMemoSingleFlight checks that concurrent callers of one key wait for
// the first caller's result instead of computing their own.
func TestMemoSingleFlight(t *testing.T) {
	var s Study
	var calls atomic.Int32
	release := make(chan struct{})
	f := func() (string, error) {
		calls.Add(1)
		<-release
		return "done", nil
	}
	const callers = 8
	var started, wg sync.WaitGroup
	started.Add(callers)
	got := make([]string, callers)
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			started.Done()
			got[i], _ = memo(&s, []any{"flight"}, f)
		}()
	}
	// Hold the first caller's computation open until every caller has
	// started; without single-flight the others would each run f. The
	// pause only widens that window: a correct memo passes however the
	// goroutines are scheduled.
	started.Wait()
	for calls.Load() == 0 {
		runtime.Gosched()
	}
	time.Sleep(20 * time.Millisecond)
	close(release)
	wg.Wait()
	if n := calls.Load(); n != 1 {
		t.Errorf("f ran %d times for one key, want 1", n)
	}
	for i, v := range got {
		if v != "done" {
			t.Errorf("caller %d got %q", i, v)
		}
	}
}

// TestTransientFanOutWorkerEquivalence checks that the transient drivers'
// concurrent runs land by index: the results are bit-identical at 1, 2
// and 8 workers.
func TestTransientFanOutWorkerEquivalence(t *testing.T) {
	drivers := map[string]func(*Study) (any, error){
		"ext-decap-split": func(s *Study) (any, error) { return s.ExtDecapSplit(50) },
		"ext-transient":   func(s *Study) (any, error) { return s.ExtTransient() },
	}
	for name, run := range drivers {
		t.Run(name, func(t *testing.T) {
			var ref any
			for _, workers := range []int{1, 2, 8} {
				s := tinyStudy()
				s.Workers = workers
				got, err := run(s)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if workers == 1 {
					ref = got
					continue
				}
				if !sameBits(got, ref) {
					t.Errorf("workers=%d differs from the serial run:\n got %#v\nwant %#v", workers, got, ref)
				}
			}
		})
	}
}

// TestRunExperimentCountsEach checks that every experiment counts once in
// core_experiments_total, whichever drivers it calls inside.
func TestRunExperimentCountsEach(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all experiments")
	}
	done := telemetry.NewCounter("core_experiments_total")
	before := done.Value()
	s := tinyStudy()
	names := ExperimentNames()
	for _, name := range names {
		if _, err := RunExperiment(s, name, false); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if n := done.Value() - before; n != int64(len(names)) {
		t.Errorf("%d experiments counted %d times, want once each", len(names), n)
	}
}
