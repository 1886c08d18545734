// Batched PDN solves: many activity patterns against one prepared engine.
// Sweep evaluation and Monte Carlo layers solve the same placed PDN under
// different load vectors; since loads are RHS-only elements (the network
// structure stamps every cell's load unconditionally), a whole batch
// shares one compiled matrix and one factorization or preconditioner.
package pdngrid

import (
	"context"
	"fmt"
	"time"

	"voltstack/internal/telemetry"
)

var (
	mBatchSolves = telemetry.NewCounter("pdngrid_batch_solves_total")
	mBatchLanes  = telemetry.NewCounter("pdngrid_batch_lanes_total")
)

// SolveBatch solves the PDN once per activity matrix in the batch and
// returns one Result per entry, bit-identical to calling Solve on each
// entry in order. Entry i of the batch must be Layers x NumCores like
// Solve's argument.
func (p *PDN) SolveBatch(batch [][][]float64) ([]*Result, error) {
	return p.SolveBatchContext(context.Background(), batch)
}

// SolveBatchContext is SolveBatch with a context for trace-span and
// job-scope propagation (see SolveContext).
//
// The matrix is identical across entries (loads are RHS-only), so the
// engine's one factor or preconditioner serves all lanes, which run on a
// pool of parallel.DefaultWorkers; each lane is bit-identical to a serial
// Solve of its entry for any worker count.
func (p *PDN) SolveBatchContext(ctx context.Context, batch [][][]float64) ([]*Result, error) {
	k := len(batch)
	if k == 0 {
		return nil, nil
	}
	mBatchSolves.Add(1)
	mBatchLanes.Add(int64(k))

	loads := make([][][]float64, k)
	for i, acts := range batch {
		ld, err := p.rasterizeLoads(acts)
		if err != nil {
			return nil, fmt.Errorf("pdngrid: batch entry %d: %w", i, err)
		}
		loads[i] = ld
	}

	sp := telemetry.StartSpanCtx(ctx, "pdngrid.solve-batch")
	defer sp.End()
	scope := telemetry.ScopeFrom(ctx)
	scope.Counter("job_batch_solves_total").Add(1)
	scope.Counter("job_batch_lanes_total").Add(int64(k))

	eng, err := p.engineFor(sp, loads[0])
	if err != nil {
		return nil, err
	}
	defer p.putEngine(eng)

	spS := sp.Start("linear-solve")
	var tJob time.Time
	if scope != nil {
		tJob = time.Now()
	}
	tS := telemetry.Now()
	sols, err := eng.prep.SolveBatch(k, func(i int) {
		eng.applyLoads(loads[i], p.nCells)
	})
	mSolveSeconds.Since(tS)
	spS.End()
	if err != nil {
		return nil, solveFailure(eng.asm.net.NumNodes(), err)
	}

	out := make([]*Result, k)
	for i, sol := range sols {
		// Element-level queries in extractResult (LoadPower, …) read live
		// netlist values, so entry i's loads must be active while its
		// Result is derived.
		eng.applyLoads(loads[i], p.nCells)
		out[i] = p.extractResult(eng.asm, sol)
		mSolves.Add(1)
		mNodesHist.Observe(float64(eng.asm.net.NumNodes()))
	}
	if scope != nil {
		recordJobSolves(scope, spS, time.Since(tJob).Seconds(), sols)
	}
	return out, nil
}
