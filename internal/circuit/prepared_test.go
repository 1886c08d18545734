package circuit

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// allKinds are the concrete solver kinds plus Auto.
var allKinds = []SolverKind{Auto, DirectSparseND, PCGIC0, PCGJacobi, PCGAMG}

// sameSolution asserts a reused engine's solution (got) is bit-identical to
// a cold engine's (want).
func sameSolution(t *testing.T, label string, want, got *Solution, nn int) {
	t.Helper()
	if want.Iterations != got.Iterations {
		t.Fatalf("%s: iterations %d vs %d", label, want.Iterations, got.Iterations)
	}
	if math.Float64bits(want.Residual) != math.Float64bits(got.Residual) {
		t.Fatalf("%s: residual %v vs %v", label, want.Residual, got.Residual)
	}
	for i := 0; i < nn; i++ {
		if math.Float64bits(want.V(i)) != math.Float64bits(got.V(i)) {
			t.Fatalf("%s: node %d: %v vs %v (bitwise)", label, i, want.V(i), got.V(i))
		}
	}
}

// TestPreparedMatchesFreshAllKinds: Netlist.Solve compiles a fresh (cold)
// engine per call; repeat solves on one engine must match it bit for bit.
func TestPreparedMatchesFreshAllKinds(t *testing.T) {
	for _, kind := range allKinds {
		rng := rand.New(rand.NewSource(42))
		n := randomStackNetwork(rng)
		opts := SolveOptions{Solver: kind}
		fresh, err := n.Solve(opts)
		if err != nil {
			t.Fatalf("kind %d: fresh: %v", kind, err)
		}
		p, err := n.Compile(opts)
		if err != nil {
			t.Fatalf("kind %d: compile: %v", kind, err)
		}
		// Repeat solves must all match (factor reuse does not drift).
		for rep := 0; rep < 3; rep++ {
			got, err := p.Solve(nil)
			if err != nil {
				t.Fatalf("kind %d rep %d: prepared: %v", kind, rep, err)
			}
			sameSolution(t, "prepared", fresh, got, n.NumNodes())
		}
	}
}

// TestPreparedSettersMatchFresh: after SetLoad changes every load current
// on a factored engine, its solve must be bit-identical to a cold engine
// compiled from the mutated netlist (SetLoad writes it in place).
func TestPreparedSettersMatchFresh(t *testing.T) {
	for _, kind := range allKinds {
		rng := rand.New(rand.NewSource(7))
		n := randomStackNetwork(rng)
		opts := SolveOptions{Solver: kind}
		p, err := n.Compile(opts)
		if err != nil {
			t.Fatalf("kind %d: compile: %v", kind, err)
		}
		if _, err := p.Solve(nil); err != nil {
			t.Fatalf("kind %d: first solve: %v", kind, err)
		}
		for round := 0; round < 2; round++ {
			for id := range n.loads {
				p.SetLoad(LoadID(id), n.loads[id].i*(0.5+rng.Float64()))
			}
			got, err := p.Solve(nil)
			if err != nil {
				t.Fatalf("kind %d round %d: after SetLoad: %v", kind, round, err)
			}
			fresh, err := n.Solve(opts)
			if err != nil {
				t.Fatalf("kind %d round %d: fresh: %v", kind, round, err)
			}
			sameSolution(t, "after-setload", fresh, got, n.NumNodes())
		}
	}
}

// TestPreparedRejectsTopologyChange: a netlist that gains nodes or
// elements after Compile no longer matches the compiled matrix, so both
// solve entry points refuse it.
func TestPreparedRejectsTopologyChange(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := randomStackNetwork(rng)
	p, err := n.Compile(SolveOptions{Solver: DirectSparseND})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Solve(nil); err != nil {
		t.Fatal(err)
	}
	nd := n.Node()
	n.AddResistor(nd, 0, 0.5)
	if _, err := p.Solve(nil); !errors.Is(err, ErrNetlistChanged) {
		t.Fatalf("Solve after growth: err = %v, want ErrNetlistChanged", err)
	}
	if _, err := p.SolveBatch(2, nil); !errors.Is(err, ErrNetlistChanged) {
		t.Fatalf("SolveBatch after growth: err = %v, want ErrNetlistChanged", err)
	}
}

func TestPreparedEmptyNetlist(t *testing.T) {
	n := New()
	p, err := n.Compile(SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := p.Solve(nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.V(Ground) != 0 {
		t.Fatal("ground must be 0")
	}
}
