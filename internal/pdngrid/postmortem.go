// Solve-failure post-mortems. When a PDN solve dies — PCG breakdown,
// non-convergence, factorization failure — the error alone ("residual
// 3.2e-03 after 400 iterations") rarely says why. A failed PCG solve
// carries its convergence report (sparse.ReportFromError); this file
// packages that report together with the PDN's node count into a JSON
// artifact written through telemetry.DumpPostmortem.
package pdngrid

import (
	"fmt"

	"voltstack/internal/sparse"
	"voltstack/internal/telemetry"
)

// SolvePostmortem is the JSON artifact describing one failed PDN solve.
type SolvePostmortem struct {
	Stage string `json:"stage"` // "linear-solve"
	Nodes int    `json:"nodes"`
	// Convergence is the failed linear solve's convergence report, present
	// when the solve was PCG.
	Convergence *telemetry.ConvergenceReport `json:"convergence,omitempty"`
	Error       string                       `json:"error"`
}

// solveFailure wraps a linear-solve error with pdngrid context and — when
// a post-mortem directory is configured — dumps the artifact and appends
// its path to the error message.
func solveFailure(nodes int, err error) error {
	wrapped := fmt.Errorf("pdngrid: %w", err)
	if telemetry.PostmortemEnabled() {
		pm := &SolvePostmortem{
			Stage:       "linear-solve",
			Nodes:       nodes,
			Convergence: sparse.ReportFromError(err),
			Error:       err.Error(),
		}
		if path, derr := telemetry.DumpPostmortem("pdngrid-solve", pm); derr == nil && path != "" {
			wrapped = fmt.Errorf("pdngrid: %w (post-mortem: %s)", err, path)
		}
	}
	return wrapped
}
