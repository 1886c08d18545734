// Convergence probes: opt-in per-solve analytics that turn the PCG
// iteration stream into a telemetry.ConvergenceReport — the bounded
// residual history, extreme-eigenvalue and condition-number estimates
// from the CG Lanczos tridiagonal (zero extra matvecs), per-cycle AMG
// reduction factors, and detectors for stagnation, plateau and
// preconditioner degradation. A failed probed solve returns its report
// attached to the error (ProbeError), so the caller — typically pdngrid —
// can dump a post-mortem artifact of exactly the solve that failed.
//
// The probe also does numerics of its own at seal time, so its contract
// is strict:
//
//   - Probes never perturb solver arithmetic. They only *read* scalars the
//     solver already computed (α, β, the relative residual); every
//     estimate is derived after the fact from those copies. Results are
//     byte-identical with probes on or off — sparsetest pins this at the
//     sparse, circuit and pdngrid levels, and across batch lanes.
//
//   - Zero-alloc when disabled: one telemetry.ProbesEnabled() load per
//     solve, a nil check per iteration, no allocation on any path.
//
// The Lanczos connection: PCG's scalars implicitly build the Lanczos
// tridiagonal T_m of M⁻¹A,
//
//	d_0 = 1/α_0,   d_i = 1/α_i + β_{i-1}/α_{i-1},
//	e_i = √β_i / α_i                       (off-diagonal),
//
// whose extreme eigenvalues (Ritz values) converge to λ_min and λ_max of
// the preconditioned operator as the iteration proceeds. Their ratio is
// the κ(M⁻¹A) estimate that decides whether a solve is slow because the
// system is ill-conditioned or because the preconditioner degraded.
package sparse

import (
	"errors"
	"fmt"
	"log/slog"
	"math"
	"strings"

	"voltstack/internal/telemetry"
)

// Solver-health instrumentation. Counters/gauges are process-registry
// no-ops unless telemetry is enabled; the detectors additionally emit
// structured events when the event log is on.
var (
	mHealthReports     = telemetry.NewCounter("solver_health_reports_total")
	mHealthStagnation  = telemetry.NewCounter("solver_health_stagnation_total")
	mHealthPlateau     = telemetry.NewCounter("solver_health_plateau_total")
	mHealthDegradation = telemetry.NewCounter("solver_health_precond_degradation_total")
	mHealthCond        = telemetry.NewGauge("solver_health_cond_estimate")
	mHealthReduction   = telemetry.NewGauge("solver_health_reduction_factor")
)

// Probe bounds. The residual ring keeps telemetry.ResidualHeadLen leading
// and telemetry.ResidualTailLen trailing residuals; the Lanczos
// coefficient buffer keeps the first probeLanczosCap (α, β) pairs — Ritz
// extremes are driven by the leading coefficients, so a prefix estimates
// κ without unbounded growth.
const (
	probeLanczosCap = 512

	// Detector windows/thresholds (see detect): trailing window length,
	// the per-iteration reduction factor above which the trailing window
	// counts as a plateau, the near-1 factor that counts as stagnation,
	// and the early-window factor that must have been "healthy" before a
	// slow tail counts as preconditioner degradation.
	probeWindow       = 16
	plateauThreshold  = 0.98
	stagnationFactor  = 0.999
	degradationEarly  = 0.90
	degradationFactor = 0.95
)

// probesOn is a local alias so the hot path reads naturally.
func probesOn() bool { return telemetry.ProbesEnabled() }

// convProbe accumulates one solve's convergence stream. Created only when
// the probe gate is on at solve entry; all methods are cheap appends.
type convProbe struct {
	report telemetry.ConvergenceReport
	prec   Preconditioner

	head []float64
	tail []float64 // circular once the head is full
	pos  int       // next write slot in tail
	n    int       // residuals recorded beyond the head

	alphas []float64 // first probeLanczosCap CG α coefficients
	betas  []float64 // first probeLanczosCap−1 CG β coefficients
}

func newConvProbe(a *CSR, prec Preconditioner, tol float64, maxIter int) *convProbe {
	return &convProbe{
		report: telemetry.ConvergenceReport{
			Kind:           "pcg",
			N:              a.N(),
			Preconditioner: precName(prec),
			Tol:            tol,
			MaxIter:        maxIter,
		},
		prec: prec,
		head: make([]float64, 0, telemetry.ResidualHeadLen),
	}
}

// record appends one relative residual (iteration 0 before the loop, then
// once per iteration).
func (p *convProbe) record(res float64) {
	if len(p.head) < telemetry.ResidualHeadLen {
		p.head = append(p.head, res)
		return
	}
	if p.tail == nil {
		p.tail = make([]float64, telemetry.ResidualTailLen)
	}
	p.tail[p.pos] = res
	p.pos = (p.pos + 1) % telemetry.ResidualTailLen
	p.n++
}

// iter records one completed iteration: its CG step length α and the
// post-update relative residual.
func (p *convProbe) iter(alpha, res float64) {
	if len(p.alphas) < probeLanczosCap {
		p.alphas = append(p.alphas, alpha)
	}
	p.record(res)
}

// betaCoeff records the β of an iteration that continued (β is never
// computed for the final, converged iteration).
func (p *convProbe) betaCoeff(beta float64) {
	if len(p.betas) < probeLanczosCap-1 {
		p.betas = append(p.betas, beta)
	}
}

// residuals flattens the ring into iteration order and the dropped count.
func (p *convProbe) residuals() ([]float64, int) {
	out := append([]float64(nil), p.head...)
	dropped := 0
	if p.n > telemetry.ResidualTailLen {
		dropped = p.n - telemetry.ResidualTailLen
		for i := 0; i < telemetry.ResidualTailLen; i++ {
			out = append(out, p.tail[(p.pos+i)%telemetry.ResidualTailLen])
		}
	} else {
		out = append(out, p.tail[:p.n]...)
	}
	return out, dropped
}

// seal finalizes the probe into its report: spectral estimates, reduction
// factor, detector verdicts, AMG diagnostics; then publishes the report
// to telemetry (metrics, /statusz state, structured events).
// Call exactly once per solve, on every exit path.
func (p *convProbe) seal(res CGResult, converged bool) *telemetry.ConvergenceReport {
	r := &p.report
	r.Iterations = res.Iterations
	r.FinalResidual = res.Residual
	r.Converged = converged
	r.Residuals, r.ResidualsDropped = p.residuals()

	if lo, hi, m, ok := lanczosExtremes(p.alphas, p.betas); ok {
		r.LambdaMin, r.LambdaMax, r.LanczosDim = lo, hi, m
		if lo > 0 {
			r.CondEstimate = hi / lo
		}
	}
	if len(r.Residuals) > 1 && r.Residuals[0] > 0 && r.FinalResidual > 0 {
		k := r.Iterations
		if k < 1 {
			k = len(r.Residuals) - 1
		}
		if k >= 1 {
			r.ReductionFactor = math.Pow(r.FinalResidual/r.Residuals[0], 1/float64(k))
		}
	}
	p.detect(r)
	if mg, ok := p.prec.(*AMGPrec); ok {
		st := mg.Stats()
		amg := &telemetry.AMGReport{
			Levels:             st.Levels,
			OperatorComplexity: st.OperatorComplexity,
			GridComplexity:     st.GridComplexity,
		}
		rs := r.Residuals
		lo := len(rs) - 2*probeWindow
		if lo < 0 {
			lo = 0
		}
		for i := lo + 1; i < len(rs); i++ {
			if rs[i-1] > 0 {
				amg.CycleReductions = append(amg.CycleReductions, rs[i]/rs[i-1])
			}
		}
		r.AMG = amg
	}
	p.publish(r)
	return r
}

// detect runs the convergence detectors over the recorded trajectory.
// All three look at geometric reduction factors, so they are scale-free:
//
//   - stagnation: the trailing window made essentially no net progress
//     (per-iteration factor ≥ stagnationFactor) and the solve did not
//     converge — the iteration is stuck.
//   - plateau: the trailing factor is above plateauThreshold while the
//     residual is still above tolerance — progress, but far slower than
//     the budget assumes.
//   - preconditioner degradation: the leading window converged fast
//     (early factor < degradationEarly) but the trailing window is slow
//     (late factor > degradationFactor) — the preconditioner matched the
//     easy part of the spectrum and lost effectiveness.
func (p *convProbe) detect(r *telemetry.ConvergenceReport) {
	rs := r.Residuals
	if len(rs) < probeWindow+1 || r.Converged {
		return
	}
	last := rs[len(rs)-1]
	wStart := rs[len(rs)-1-probeWindow]
	if wStart <= 0 || last <= 0 {
		return
	}
	late := math.Pow(last/wStart, 1/float64(probeWindow))
	if late >= stagnationFactor {
		r.Stagnation = true
	} else if late >= plateauThreshold {
		r.Plateau = true
	}
	ew := probeWindow
	if ew > len(p.head)-1 {
		ew = len(p.head) - 1
	}
	if ew >= 2 && p.head[0] > 0 && p.head[ew] > 0 {
		early := math.Pow(p.head[ew]/p.head[0], 1/float64(ew))
		if early < degradationEarly && late > degradationFactor {
			r.Degradation = true
		}
	}
}

// publish pushes the sealed report into the telemetry surfaces: the
// solver_health_* instruments, the most-recent-report slot behind
// /statusz, and (when the event log is on) one structured event per
// tripped detector.
func (p *convProbe) publish(r *telemetry.ConvergenceReport) {
	mHealthReports.Add(1)
	if r.CondEstimate > 0 {
		mHealthCond.Set(r.CondEstimate)
	}
	if r.ReductionFactor > 0 {
		mHealthReduction.Set(r.ReductionFactor)
	}
	if r.Stagnation {
		mHealthStagnation.Add(1)
	}
	if r.Plateau {
		mHealthPlateau.Add(1)
	}
	if r.Degradation {
		mHealthDegradation.Add(1)
	}
	telemetry.RecordSolverHealth(r)
	if telemetry.EventsEnabled() {
		if r.Stagnation {
			telemetry.Event(slog.LevelWarn, "sparse: solver stagnation detected",
				slog.Int("n", r.N), slog.String("preconditioner", r.Preconditioner),
				slog.Int("iterations", r.Iterations),
				slog.Float64("residual", r.FinalResidual),
				slog.Float64("cond_estimate", r.CondEstimate))
		}
		if r.Plateau {
			telemetry.Event(slog.LevelWarn, "sparse: solver convergence plateau",
				slog.Int("n", r.N), slog.String("preconditioner", r.Preconditioner),
				slog.Int("iterations", r.Iterations),
				slog.Float64("reduction_factor", r.ReductionFactor),
				slog.Float64("cond_estimate", r.CondEstimate))
		}
		if r.Degradation {
			telemetry.Event(slog.LevelWarn, "sparse: preconditioner degradation detected",
				slog.Int("n", r.N), slog.String("preconditioner", r.Preconditioner),
				slog.Int("iterations", r.Iterations),
				slog.Float64("cond_estimate", r.CondEstimate))
		}
	}
}

// fail seals the probe of a failed solve and attaches its report to both
// the result and the error.
func (p *convProbe) fail(res CGResult, err error) (CGResult, error) {
	res.Health = p.seal(res, false)
	return res, &ProbeError{Err: err, Report: res.Health}
}

// ProbeError is the error of a failed probed solve: the solver error plus
// the solve's convergence report. Its message appends the recent
// residuals and the condition estimate, so the first log line carries the
// evidence; Unwrap keeps errors.Is/As working against the cause
// (ErrNoConvergence, the SPD breakdown error, ...).
type ProbeError struct {
	Err    error
	Report *telemetry.ConvergenceReport
}

func (e *ProbeError) Error() string {
	rs := e.Report.Residuals
	var b strings.Builder
	b.WriteString(e.Err.Error())
	b.WriteString(" [probe: recent residuals ")
	for i, v := range rs[max(len(rs)-8, 0):] {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%.3e", v)
	}
	if e.Report.CondEstimate > 0 {
		fmt.Fprintf(&b, "; κ≈%.3g", e.Report.CondEstimate)
	}
	b.WriteByte(']')
	return b.String()
}

// Unwrap exposes the underlying solver error.
func (e *ProbeError) Unwrap() error { return e.Err }

// ReportFromError returns the convergence report attached to err, or nil
// when err carries none (probes off, or not a solver error).
func ReportFromError(err error) *telemetry.ConvergenceReport {
	var pe *ProbeError
	if errors.As(err, &pe) {
		return pe.Report
	}
	return nil
}

// precName labels a preconditioner for reports.
func precName(p Preconditioner) string {
	switch p.(type) {
	case IdentityPrec, *IdentityPrec:
		return "identity"
	case *JacobiPrec:
		return "jacobi"
	case *IC0Prec:
		return "ic0"
	case *AMGPrec:
		return "amg"
	default:
		return "custom"
	}
}

// lanczosExtremes maps the CG coefficient stream onto the Lanczos
// tridiagonal of the preconditioned operator and returns its extreme
// eigenvalues (the Ritz estimates of λ_min and λ_max). ok is false when
// the stream is too short or numerically unusable (non-positive α,
// negative β — both signal breakdown, where no estimate is meaningful).
func lanczosExtremes(alphas, betas []float64) (lo, hi float64, m int, ok bool) {
	m = len(alphas)
	if m > len(betas)+1 {
		m = len(betas) + 1
	}
	if m < 1 {
		return 0, 0, 0, false
	}
	d := make([]float64, m)
	e := make([]float64, m-1)
	for i := 0; i < m; i++ {
		a := alphas[i]
		if a <= 0 || math.IsNaN(a) || math.IsInf(a, 0) {
			return 0, 0, 0, false
		}
		d[i] = 1 / a
		if i > 0 {
			d[i] += betas[i-1] / alphas[i-1]
		}
		if i < m-1 {
			bt := betas[i]
			if bt < 0 || math.IsNaN(bt) || math.IsInf(bt, 0) {
				return 0, 0, 0, false
			}
			e[i] = math.Sqrt(bt) / a
		}
	}
	lo, hi = tridiagExtremeEigs(d, e)
	return lo, hi, m, true
}

// tridiagExtremeEigs returns the smallest and largest eigenvalues of the
// symmetric tridiagonal matrix with diagonal d and off-diagonal e, via
// Sturm-sequence bisection inside the Gershgorin bounds. O(len(d)) per
// bisection step, ~100 steps total — microseconds at the probe's cap.
func tridiagExtremeEigs(d, e []float64) (lo, hi float64) {
	m := len(d)
	if m == 1 {
		return d[0], d[0]
	}
	gLo, gHi := math.Inf(1), math.Inf(-1)
	for i := 0; i < m; i++ {
		r := 0.0
		if i > 0 {
			r += math.Abs(e[i-1])
		}
		if i < m-1 {
			r += math.Abs(e[i])
		}
		gLo = math.Min(gLo, d[i]-r)
		gHi = math.Max(gHi, d[i]+r)
	}
	lo = bisectEig(d, e, gLo, gHi, 1) // smallest: first x with count(x) ≥ 1
	hi = bisectEig(d, e, gLo, gHi, m) // largest: first x with count(x) ≥ m
	return lo, hi
}

// bisectEig finds the k-th smallest eigenvalue by bisection on the Sturm
// count: the returned x satisfies count(x⁻) < k ≤ count(x⁺).
func bisectEig(d, e []float64, lo, hi float64, k int) float64 {
	for range 100 {
		mid := 0.5 * (lo + hi)
		if mid == lo || mid == hi {
			break
		}
		if sturmCount(d, e, mid) >= k {
			hi = mid
		} else {
			lo = mid
		}
	}
	return 0.5 * (lo + hi)
}

// sturmCount returns the number of eigenvalues of tridiag(d, e) strictly
// below x, via the standard LDLᵀ sign-count recurrence.
func sturmCount(d, e []float64, x float64) int {
	count := 0
	q := d[0] - x
	if q < 0 {
		count++
	}
	for i := 1; i < len(d); i++ {
		if q == 0 {
			q = 1e-300
		}
		q = d[i] - x - e[i-1]*e[i-1]/q
		if q < 0 {
			count++
		}
	}
	return count
}
