// Multi-RHS solves on the prepared engine: one topology check and at most
// one factor or preconditioner build (the engine's first solve), then every
// right-hand side of the batch is solved against that shared factor. This
// is the circuit-level face of sparse's batch API, and the amortization it
// buys is what makes sweep points and Monte Carlo trial batches cheap.
package circuit

import (
	"voltstack/internal/sparse"
	"voltstack/internal/telemetry"
)

var (
	mPrepBatchSolves = telemetry.NewCounter("circuit_prepared_batch_solves_total")
	mPrepBatchLanes  = telemetry.NewCounter("circuit_prepared_batch_lanes_total")
)

// SolveBatch solves the network k times under k load-current variations.
// Before stamping entry i's right-hand side it calls setRHS(i), which may
// change only load currents (SetLoad); the matrix and its factor are fixed.
// Lanes start cold and run concurrently on a pool of
// parallel.DefaultWorkers.
//
// Lane i is bit-identical to calling setRHS(i) followed by Solve(nil).
// The returned Solutions share the engine's netlist, so element-level
// queries (LoadPower, TieCurrent, …) on Solutions[i] read whatever load
// currents the netlist holds at query time: re-apply entry i's loads (or
// query immediately inside a setRHS-style loop) before using them. The
// voltage vectors themselves are private per lane.
func (p *Prepared) SolveBatch(k int, setRHS func(i int)) ([]*Solution, error) {
	mPrepBatchSolves.Add(1)
	mPrepBatchLanes.Add(int64(k))
	if err := p.checkTopology(); err != nil {
		return nil, err
	}
	n := p.net
	nn := p.nNodes
	sols := make([]*Solution, k)
	if nn == 0 {
		for i := range sols {
			sols[i] = &Solution{net: n}
		}
		return sols, nil
	}
	if err := p.factor(nil); err != nil {
		return nil, err
	}
	rhss := make([][]float64, k)
	for i := 0; i < k; i++ {
		if setRHS != nil {
			setRHS(i)
		}
		n.stampRHS(p.rhs)
		rhss[i] = append([]float64(nil), p.rhs...)
	}

	if p.ndF != nil {
		for i, x := range p.ndF.SolveBatchWorkers(rhss, 0) {
			sols[i] = &Solution{net: n, v: x}
		}
		return sols, nil
	}
	if p.bws == nil {
		p.bws = sparse.NewPCGBatchWorkspace(nn, k)
	}
	xs, results, err := sparse.PCGBatch(p.a, rhss, nil, p.prec, p.tol, p.maxIter, p.bws, 0)
	if err != nil {
		return nil, err
	}
	for i, x := range xs {
		sols[i] = &Solution{
			net:        n,
			v:          x,
			Iterations: results[i].Iterations,
			Residual:   results[i].Residual,
			Health:     results[i].Health,
		}
	}
	return sols, nil
}
