package circuit_test

import (
	"math"
	"testing"

	"voltstack/internal/circuit"
)

// Closed-form transient oracles. Backward Euler applied to a first-order
// network with time constant tau has the exact discrete solution
//
//	x_k = X·(1 − (1+dt/tau)^−k)
//
// for a step from zero toward X, so the integrator can be checked to
// rounding error rather than against the continuous exponential. The
// expected values here come from that recurrence alone.

var allSolvers = []circuit.SolverKind{circuit.Auto, circuit.DirectSparseND, circuit.PCGAMG}

// backwardEuler returns X·(1 − (1+dt/tau)^−k).
func backwardEuler(x, dt, tau float64, k int) float64 {
	return x * (1 - math.Pow(1+dt/tau, -float64(k)))
}

func checkRecurrence(t *testing.T, kind circuit.SolverKind, got []float64, x, dt, tau float64) {
	t.Helper()
	for k, v := range got {
		want := backwardEuler(x, dt, tau, k)
		if math.Abs(v-want) > 1e-12*math.Abs(want) {
			t.Fatalf("solver %d, step %d: %.17g, want %.17g (rel err %.3g)",
				kind, k, v, want, math.Abs(v-want)/math.Abs(want))
		}
	}
}

func TestTransientRCChargeMatchesBackwardEuler(t *testing.T) {
	// A 1.2 V rail charges C through R from zero. dt = tau/5 is coarse
	// enough that the discrete and continuous answers differ by a few
	// percent of the rail.
	const r, c, vRail = 50.0, 2e-9, 1.2
	tau := r * c
	dt := tau / 5
	for _, kind := range allSolvers {
		n := circuit.New()
		out := n.Node()
		n.AddRailTie(out, r, vRail)
		n.AddCapacitor(out, circuit.Ground, c)
		res, err := n.Transient(circuit.TransientOptions{
			DT: dt, Steps: 60, Solve: circuit.SolveOptions{Solver: kind, Tol: 1e-15},
		}, []int{out})
		if err != nil {
			t.Fatalf("solver %d: %v", kind, err)
		}
		checkRecurrence(t, kind, res.V[0], vRail, dt, tau)
	}
}

func TestTransientRLRiseMatchesBackwardEuler(t *testing.T) {
	// A 1 V rail behind rSrc drives L into rLoad from rest: the current
	// rises toward V/(rSrc+rLoad) with tau = L/(rSrc+rLoad), and the probed
	// load voltage is rLoad times it.
	const rSrc, rLoad, l, vRail = 0.5, 1.5, 4e-9, 1.0
	rTot := rSrc + rLoad
	tau := l / rTot
	dt := tau / 4
	for _, kind := range allSolvers {
		n := circuit.New()
		a := n.Node()
		out := n.Node()
		n.AddRailTie(a, rSrc, vRail)
		n.AddInductor(a, out, l)
		n.AddResistor(out, circuit.Ground, rLoad)
		res, err := n.Transient(circuit.TransientOptions{
			DT: dt, Steps: 60, Solve: circuit.SolveOptions{Solver: kind, Tol: 1e-15},
		}, []int{out})
		if err != nil {
			t.Fatalf("solver %d: %v", kind, err)
		}
		checkRecurrence(t, kind, res.V[0], vRail*rLoad/rTot, dt, tau)
	}
}
