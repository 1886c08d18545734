// Multi-RHS batched solves: one factorization (or preconditioner) serves
// many right-hand sides. The sweep, Monte Carlo and per-pad query layers
// all re-solve the same conductance matrix with different load vectors;
// batching amortizes the structure-and-factor cost across the batch and
// lets independent lanes run on the worker pool.
//
// Determinism contract: lane i of every batch API is bit-identical to the
// corresponding serial call (Solve / PCG) on the same inputs, for any
// worker count. Lanes never share mutable state: direct triangular solves
// only read the factor, and each PCG lane owns its workspace plus a
// scratch-forked preconditioner that shares factor values but not scratch.
package sparse

import (
	"context"

	"voltstack/internal/parallel"
	"voltstack/internal/telemetry"
)

// Batch instrumentation: lanes-per-batch is the amortization factor the
// multi-RHS API exists to exploit. No-ops unless telemetry is enabled.
var (
	mBatchSolves = telemetry.NewCounter("sparse_batch_solves_total")
	mBatchLanes  = telemetry.NewCounter("sparse_batch_lanes_total")
	mBatchHist   = telemetry.NewHistogram("sparse_batch_lanes")
)

func batchObserved(lanes int) {
	mBatchSolves.Add(1)
	mBatchLanes.Add(int64(lanes))
	mBatchHist.Observe(float64(lanes))
}

// SolveBatchWorkers solves A·x_i = b_i for every right-hand side using this
// factorization, with the independent triangular solves distributed over a
// pool of the given size (< 1 selects the default). The factor is only
// read, so lanes are safe to run concurrently, and column i is
// bit-identical to Solve(bs[i]) for every worker count.
func (f *SparseChol) SolveBatchWorkers(bs [][]float64, workers int) [][]float64 {
	batchObserved(len(bs))
	xs := make([][]float64, len(bs))
	pool := parallel.NewPool(workers)
	// Solve never fails; ForEachN's error path is unreachable here.
	_ = pool.ForEachN(context.Background(), len(bs), func(i int) error {
		xs[i] = f.Solve(bs[i])
		return nil
	})
	return xs
}

// PCGBatchWorkspace holds one PCGWorkspace per lane so a batched solve
// allocates nothing per call once warmed. It must not be shared between
// concurrent batched solves.
type PCGBatchWorkspace struct {
	lanes []*PCGWorkspace
}

// NewPCGBatchWorkspace returns a workspace for batches of up to the given
// lane count on n-dimensional systems. Both grow on demand.
func NewPCGBatchWorkspace(n, lanes int) *PCGBatchWorkspace {
	w := &PCGBatchWorkspace{lanes: make([]*PCGWorkspace, lanes)}
	for i := range w.lanes {
		w.lanes[i] = NewPCGWorkspace(n)
	}
	return w
}

// lane returns the i-th per-lane workspace, growing the set as needed.
func (w *PCGBatchWorkspace) lane(i, n int) *PCGWorkspace {
	for len(w.lanes) <= i {
		w.lanes = append(w.lanes, NewPCGWorkspace(n))
	}
	return w.lanes[i]
}

// scratchForker is implemented by preconditioners whose Apply uses
// internal scratch: forkScratch returns a view sharing the (read-only)
// factor values but owning fresh scratch, so forks can Apply concurrently.
type scratchForker interface {
	forkScratch() Preconditioner
}

// forkScratch returns an IC0 view sharing the factors and scaling but
// owning its own solve scratch.
func (p *IC0Prec) forkScratch() Preconditioner {
	q := *p
	q.tmp = make([]float64, len(p.tmp))
	return &q
}

// forkPreconditioner returns a lane-private view of p whose Apply is safe
// to run concurrently with other forks: known-stateless preconditioners
// are returned as-is, scratch-carrying ones are scratch-forked. The second
// result reports whether concurrent application is safe; unknown
// implementations return false and must be applied serially.
func forkPreconditioner(p Preconditioner) (Preconditioner, bool) {
	switch q := p.(type) {
	case nil:
		return nil, true
	case IdentityPrec, *IdentityPrec, *JacobiPrec:
		return p, true
	case scratchForker:
		return q.forkScratch(), true
	default:
		return p, false
	}
}

// PCGBatch solves A·x_i = b_i for every right-hand side with one shared
// matrix and preconditioner, reusing one PCGWorkspace per lane. x0s may be
// nil (every lane cold-starts) or per-lane warm starts (nil entries
// allowed); ws may be nil (allocated per call).
//
// Up to min(k, workers) lanes run concurrently; each lane's solve is
// serial. workers < 1 selects the parallel-package default
// (VOLTSTACK_WORKERS or GOMAXPROCS); a preconditioner the package cannot
// prove concurrency-safe forces serial lanes.
//
// Lane i is bit-identical to PCG(a, bs[i], x0s[i], prec, tol, maxIter, …)
// for every worker count. All lanes run to completion even when some
// fail; the returned error is the lowest-index lane failure (per-lane
// results and iterates stay valid either way, matching PCG's breakdown
// semantics).
func PCGBatch(a *CSR, bs, x0s [][]float64, prec Preconditioner, tol float64, maxIter int, ws *PCGBatchWorkspace, workers int) ([][]float64, []CGResult, error) {
	k := len(bs)
	batchObserved(k)
	if x0s != nil && len(x0s) != k {
		panic("sparse: PCGBatch warm-start count does not match RHS count")
	}
	if ws == nil {
		ws = &PCGBatchWorkspace{}
	}
	n := a.N()
	laneW := workers
	if laneW < 1 {
		laneW = parallel.DefaultWorkers()
	}
	if k < laneW {
		laneW = k
	}
	precs := make([]Preconditioner, k)
	safe := laneW > 1
	if safe {
		for i := range precs {
			precs[i], safe = forkPreconditioner(prec)
		}
	}
	if !safe {
		// Serial lanes apply the preconditioner one at a time, so they can
		// share its scratch; forking would only churn memory (an AMG fork
		// duplicates a whole grid hierarchy per lane).
		laneW = 1
		for i := range precs {
			precs[i] = prec
		}
	}
	xs := make([][]float64, k)
	results := make([]CGResult, k)
	errs := make([]error, k)
	lanes := make([]*PCGWorkspace, k)
	for i := 0; i < k; i++ {
		lanes[i] = ws.lane(i, n)
	}
	pool := parallel.NewPool(laneW)
	// Lane failures are collected, not propagated: a breakdown in one lane
	// must not cancel the others (ForEachN would stop dispatching).
	_ = pool.ForEachN(context.Background(), k, func(i int) error {
		var x0 []float64
		if x0s != nil {
			x0 = x0s[i]
		}
		xs[i], results[i], errs[i] = PCG(a, bs[i], x0, precs[i], tol, maxIter, lanes[i])
		return nil
	})
	for _, err := range errs {
		if err != nil {
			return xs, results, err
		}
	}
	return xs, results, nil
}
