package circuit

import (
	"math/rand"
	"testing"
	"testing/quick"

	"voltstack/internal/units"
)

// randomResistiveNetwork builds a random connected resistor network with
// ties, without converters (linear reciprocal network).
func randomResistiveNetwork(rng *rand.Rand) (*Netlist, []int) {
	n := New()
	k := 4 + rng.Intn(8)
	nodes := n.Nodes(k)
	// Spanning chain keeps it connected.
	for i := 1; i < k; i++ {
		n.AddResistor(nodes[i-1], nodes[i], 0.1+rng.Float64())
	}
	// Extra random edges.
	for e := 0; e < k; e++ {
		a, b := rng.Intn(k), rng.Intn(k)
		if a != b {
			n.AddResistor(nodes[a], nodes[b], 0.1+rng.Float64())
		}
	}
	n.AddRailTie(nodes[0], 0.05+rng.Float64(), 0)
	return n, nodes
}

func TestSuperposition(t *testing.T) {
	// For a linear network, the response to two loads equals the sum of
	// the responses to each load alone.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		build := func(i1, i2 float64) []float64 {
			n, nodes := buildFixed(seed)
			if i1 != 0 {
				n.AddLoad(nodes[1], Ground, i1)
			}
			if i2 != 0 {
				n.AddLoad(nodes[len(nodes)-1], Ground, i2)
			}
			s, err := n.Solve(SolveOptions{Solver: DirectSparseND})
			if err != nil {
				return nil
			}
			out := make([]float64, len(nodes))
			for i, nd := range nodes {
				out[i] = s.V(nd)
			}
			return out
		}
		i1 := rng.Float64()
		i2 := rng.Float64()
		both := build(i1, i2)
		only1 := build(i1, 0)
		only2 := build(0, i2)
		zero := build(0, 0)
		if both == nil || only1 == nil || only2 == nil || zero == nil {
			return false
		}
		for i := range both {
			want := only1[i] + only2[i] - zero[i]
			if !units.ApproxEqual(both[i], want, 1e-9, 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// buildFixed rebuilds the identical random network for a seed (needed
// because superposition requires the same topology across solves).
func buildFixed(seed int64) (*Netlist, []int) {
	rng := rand.New(rand.NewSource(seed))
	return randomResistiveNetwork(rng)
}

func TestReciprocity(t *testing.T) {
	// For a reciprocal (resistor-only) network: the voltage at node b due
	// to a unit current injected at node a equals the voltage at a due to
	// the same current at b.
	f := func(seed int64) bool {
		probe := func(inject, measure int) float64 {
			n, nodes := buildFixed(seed)
			n.AddLoad(Ground, nodes[inject], 1) // inject 1 A
			s, err := n.Solve(SolveOptions{Solver: DirectSparseND})
			if err != nil {
				return 0
			}
			return s.V(nodes[measure])
		}
		_, nodes := buildFixed(seed)
		a, b := 1, len(nodes)-1
		vab := probe(a, b)
		vba := probe(b, a)
		return units.ApproxEqual(vab, vba, 1e-9, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestCurrentScalingLinearity(t *testing.T) {
	// Doubling every load current doubles every droop from the rail.
	f := func(seed int64) bool {
		build := func(scale float64) (*Solution, []int) {
			rng := rand.New(rand.NewSource(seed))
			n, nodes := randomResistiveNetwork(rng)
			for i := 1; i < len(nodes); i++ {
				n.AddLoad(nodes[i], Ground, scale*rng.Float64())
			}
			s, err := n.Solve(SolveOptions{Solver: DirectSparseND})
			if err != nil {
				return nil, nil
			}
			return s, nodes
		}
		s1, nodes := build(1)
		s2, _ := build(2)
		if s1 == nil || s2 == nil {
			return false
		}
		for _, nd := range nodes {
			if !units.ApproxEqual(2*s1.V(nd), s2.V(nd), 1e-9, 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestConverterNetworkStillPassive(t *testing.T) {
	// The rank-1 converter stamp must never generate energy: input power
	// covers all loads and losses for random stacked networks.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := randomStackNetwork(rng)
		s, err := n.Solve(SolveOptions{Solver: DirectSparseND})
		if err != nil {
			return false
		}
		return s.TotalInputPower() >= s.TotalLoadPower()-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
