// Batched PDN solves: many activity patterns against the PDN's one
// engine. Sweep evaluation solves the same placed PDN under different
// load vectors; loads are right-hand-side only, so every entry is an
// ordinary solve against the shared factor or preconditioner, and the
// entries run concurrently.
package pdngrid

import (
	"context"
	"fmt"

	"voltstack/internal/parallel"
	"voltstack/internal/telemetry"
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
// The entries run concurrently on a pool of parallel.DefaultWorkers, each
// one an ordinary solve on the PDN's engine, so each Result is
// bit-identical to a serial Solve of its entry for any worker count. The
// job scope attributes every entry as its own solve, in entry order, once
// all have finished. On failure the lowest-index failed entry's error is
// returned.
func (p *PDN) SolveBatchContext(ctx context.Context, batch [][][]float64) ([]*Result, error) {
	done := make([]*solved, len(batch))
	err := parallel.NewPool(0).ForEachN(ctx, len(batch), func(i int) error {
		s, err := p.solve(ctx, batch[i])
		if err != nil {
			return fmt.Errorf("pdngrid: batch entry %d: %w", i, err)
		}
		done[i] = s
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]*Result, len(batch))
	scope := telemetry.ScopeFrom(ctx)
	for i, s := range done {
		if scope != nil {
			recordJobSolves(scope, s.sp, s.secs, s.sol)
		}
		out[i] = s.res
	}
	return out, nil
}
