package parallel

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestDefaultWorkersFromEnv(t *testing.T) {
	t.Setenv(EnvWorkers, "3")
	if got := DefaultWorkers(); got != 3 {
		t.Errorf("DefaultWorkers with %s=3: got %d", EnvWorkers, got)
	}
	t.Setenv(EnvWorkers, "not-a-number")
	if got := DefaultWorkers(); got != runtime.GOMAXPROCS(0) {
		t.Errorf("invalid %s should fall back to GOMAXPROCS, got %d", EnvWorkers, got)
	}
	t.Setenv(EnvWorkers, "-2")
	if got := DefaultWorkers(); got != runtime.GOMAXPROCS(0) {
		t.Errorf("non-positive %s should fall back to GOMAXPROCS, got %d", EnvWorkers, got)
	}
}

func TestNilAndZeroPoolUsable(t *testing.T) {
	var nilPool *Pool
	if nilPool.Workers() < 1 {
		t.Error("nil pool must report a positive worker count")
	}
	var ran atomic.Int64
	if err := nilPool.ForEachN(context.Background(), 10, func(int) error {
		ran.Add(1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 10 {
		t.Errorf("ran %d of 10", ran.Load())
	}
}

func TestMapPreservesInputOrder(t *testing.T) {
	items := make([]int, 500)
	for i := range items {
		items[i] = i
	}
	out, err := Map(context.Background(), NewPool(8), items, func(i, v int) (int, error) {
		return v * v, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d, want %d", i, v, i*i)
		}
	}
}

func TestMapDeterministicAcrossWorkerCounts(t *testing.T) {
	items := make([]int, 200)
	for i := range items {
		items[i] = i
	}
	var runs [][]int
	for _, w := range []int{1, 2, 8} {
		out, err := Map(context.Background(), NewPool(w), items, func(i, v int) (int, error) {
			return 3*v + 1, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, out)
	}
	for i := 1; i < len(runs); i++ {
		for j := range runs[0] {
			if runs[i][j] != runs[0][j] {
				t.Fatalf("worker-count run %d differs at %d", i, j)
			}
		}
	}
}

func TestConcurrencyBounded(t *testing.T) {
	const workers = 3
	var inFlight, highWater atomic.Int64
	err := NewPool(workers).ForEachN(context.Background(), 100, func(int) error {
		cur := inFlight.Add(1)
		defer inFlight.Add(-1)
		for {
			hw := highWater.Load()
			if cur <= hw || highWater.CompareAndSwap(hw, cur) {
				break
			}
		}
		runtime.Gosched()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if hw := highWater.Load(); hw > workers {
		t.Errorf("observed %d concurrent tasks, pool bound is %d", hw, workers)
	}
}

func TestSingleErrorPropagates(t *testing.T) {
	boom := errors.New("boom")
	var ran atomic.Int64
	err := NewPool(4).ForEachN(context.Background(), 64, func(i int) error {
		ran.Add(1)
		if i == 17 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	// The error must stop the run early: with 64 tasks and the failure a
	// quarter of the way in, at least the tail must have been skipped.
	if ran.Load() == 64 {
		t.Error("error did not short-circuit the remaining tasks")
	}
}

func TestFirstErrorIsLowestIndexThatRan(t *testing.T) {
	// Every task fails; the reported error must be from a task that ran,
	// and with one worker it is exactly the first index.
	err := NewPool(1).ForEachN(context.Background(), 10, func(i int) error {
		return fmt.Errorf("task %d", i)
	})
	if err == nil || err.Error() != "task 0" {
		t.Errorf("serial first-error = %v, want task 0", err)
	}
	err = NewPool(8).ForEachN(context.Background(), 10, func(i int) error {
		return fmt.Errorf("task %d", i)
	})
	if err == nil {
		t.Error("all tasks failing must yield an error")
	}
}

func TestCancellationMidFlight(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int64
	release := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Cancel once the first wave of tasks is in flight.
		for started.Load() == 0 {
			runtime.Gosched()
		}
		cancel()
		close(release)
	}()
	err := NewPool(2).ForEachN(ctx, 1000, func(int) error {
		started.Add(1)
		<-release // block until cancellation, keeping tasks "mid-flight"
		return nil
	})
	wg.Wait()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := started.Load(); n >= 1000 {
		t.Errorf("cancellation did not stop dispatch (%d started)", n)
	}
}

func TestCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int64
	err := NewPool(4).ForEachN(ctx, 8, func(int) error {
		ran.Add(1)
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	// Workers may observe cancellation before claiming any index; a few
	// tasks racing the cancel are fine, all of them running is not.
	if ran.Load() == 8 {
		t.Error("pre-cancelled context should suppress the run")
	}
}

func TestPoolReuse(t *testing.T) {
	p := NewPool(4)
	// Sequential reuse.
	for round := 0; round < 20; round++ {
		var sum atomic.Int64
		if err := p.ForEachN(context.Background(), 50, func(i int) error {
			sum.Add(int64(i))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if sum.Load() != 50*49/2 {
			t.Fatalf("round %d: sum %d", round, sum.Load())
		}
	}
	// Concurrent reuse: one pool driven from several goroutines at once.
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for g := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var n atomic.Int64
			errs[g] = p.ForEachN(context.Background(), 100, func(int) error {
				n.Add(1)
				return nil
			})
			if errs[g] == nil && n.Load() != 100 {
				errs[g] = fmt.Errorf("goroutine %d ran %d of 100", g, n.Load())
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}

func TestContentionStress(t *testing.T) {
	// Many tiny tasks through a small pool: exercises the index dispatch
	// and error bookkeeping under the race detector. Kept short-mode
	// friendly (runs in well under a second).
	n := 20000
	if testing.Short() {
		n = 2000
	}
	var sum atomic.Int64
	if err := NewPool(8).ForEachN(context.Background(), n, func(i int) error {
		sum.Add(int64(i))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	want := int64(n) * int64(n-1) / 2
	if sum.Load() != want {
		t.Fatalf("sum = %d, want %d", sum.Load(), want)
	}
}

func TestGoRunsAllTasks(t *testing.T) {
	var a, b, c int
	err := Go(context.Background(), NewPool(3),
		func() error { a = 1; return nil },
		func() error { b = 2; return nil },
		func() error { c = 3; return nil },
	)
	if err != nil {
		t.Fatal(err)
	}
	if a != 1 || b != 2 || c != 3 {
		t.Errorf("tasks did not all run: %d %d %d", a, b, c)
	}
}

func TestTimeoutContext(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	err := NewPool(2).ForEachN(ctx, 1000, func(int) error {
		time.Sleep(time.Millisecond)
		return nil
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
}
