package circuit

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// allKinds are the concrete solver kinds plus Auto.
var allKinds = []SolverKind{Auto, DirectSparseND, PCGIC0, PCGJacobi}

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

func TestPreparedSettersMatchFresh(t *testing.T) {
	// After changing converter values, load currents, tie rails, and a
	// resistor through the prepared engine, the solve must be bit-identical
	// to a fresh engine compiled from the mutated netlist.
	for _, kind := range []SolverKind{DirectSparseND, PCGIC0, PCGJacobi} {
		rng := rand.New(rand.NewSource(7))
		n := randomStackNetwork(rng)
		opts := SolveOptions{Solver: kind}
		p, err := n.Compile(opts)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Solve(nil); err != nil {
			t.Fatal(err)
		}
		// Perturb every element class.
		for id := range n.converters {
			c := n.converters[id]
			p.SetConverter(ConverterID(id), 1/(c.gSeries*1.3), c.gPar*0.7)
		}
		for id := range n.loads {
			p.SetLoad(LoadID(id), n.loads[id].i*1.1)
		}
		for id := range n.ties {
			p.SetTieRail(TieID(id), n.ties[id].vRail*0.95)
		}
		p.SetResistor(ResistorID(0), 1/n.resistors[0].g*2)

		got, err := p.Solve(nil)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := n.Solve(opts) // same netlist: setters mutated it in place
		if err != nil {
			t.Fatal(err)
		}
		sameSolution(t, "after-setters", fresh, got, n.NumNodes())
	}
}

func TestPreparedRestampProperty(t *testing.T) {
	// Random conductance perturbations through the setters keep the
	// reused engine bit-identical to a freshly compiled one.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := randomStackNetwork(rng)
		opts := SolveOptions{Solver: DirectSparseND}
		p, err := n.Compile(opts)
		if err != nil {
			return false
		}
		for round := 0; round < 3; round++ {
			for id := range n.resistors {
				if rng.Intn(2) == 0 {
					p.SetResistor(ResistorID(id), (0.01+rng.Float64()*0.2)*1)
				}
			}
			for id := range n.converters {
				if rng.Intn(2) == 0 {
					p.SetConverter(ConverterID(id), 0.3+rng.Float64(), rng.Float64()*1e-3)
				}
			}
			got, err := p.Solve(nil)
			if err != nil {
				return false
			}
			fresh, err := n.Solve(opts)
			if err != nil {
				return false
			}
			for i := 0; i < n.NumNodes(); i++ {
				if math.Float64bits(fresh.V(i)) != math.Float64bits(got.V(i)) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestPreparedGParZeroTransitionRecompiles(t *testing.T) {
	// Driving a converter's parasitic shunt to zero removes matrix entries;
	// the engine must detect the structure change and still match a fresh
	// compile.
	rng := rand.New(rand.NewSource(3))
	n := randomStackNetwork(rng)
	p, err := n.Compile(SolveOptions{Solver: DirectSparseND})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Solve(nil); err != nil {
		t.Fatal(err)
	}
	for id := range n.converters {
		c := n.converters[id]
		p.SetConverter(ConverterID(id), 1/c.gSeries, 0)
	}
	got, err := p.Solve(nil)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := n.Solve(SolveOptions{Solver: DirectSparseND})
	if err != nil {
		t.Fatal(err)
	}
	sameSolution(t, "gpar-zero", fresh, got, n.NumNodes())

	// And back to nonzero.
	for id := range n.converters {
		c := n.converters[id]
		p.SetConverter(ConverterID(id), 1/c.gSeries, 1e-4)
	}
	got, err = p.Solve(nil)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err = n.Solve(SolveOptions{Solver: DirectSparseND})
	if err != nil {
		t.Fatal(err)
	}
	sameSolution(t, "gpar-back", fresh, got, n.NumNodes())
}

func TestPreparedTopologyGrowthRecompiles(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := randomStackNetwork(rng)
	p, err := n.Compile(SolveOptions{Solver: DirectSparseND})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Solve(nil); err != nil {
		t.Fatal(err)
	}
	// Add a node and elements out-of-band.
	nd := n.Node()
	n.AddResistor(nd, 0, 0.5)
	n.AddLoad(nd, Ground, 0.1)
	got, err := p.Solve(nil)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := n.Solve(SolveOptions{Solver: DirectSparseND})
	if err != nil {
		t.Fatal(err)
	}
	sameSolution(t, "growth", fresh, got, n.NumNodes())
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
