package circuit

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"voltstack/internal/parallel"
	"voltstack/internal/sparse"
)

// Dense-reference oracle: random small networks of resistors, rail ties
// and loads are solved by every solver kind through every entry point and
// compared with a reference that shares no code with the solvers. The
// test writes the nodal equations itself, straight from the element
// values (KCL at every node: conductances on the matrix, rail injections
// and load currents on the right-hand side), and solves them with a dense
// LU factorization.

type oracleResistor struct {
	a, b int // either may be Ground
	ohms float64
}

type oracleTie struct {
	node        int
	ohms, volts float64
}

// oracleLoad draws amps[lane] from node `from` into node `to`; lane 0 is
// the value the single-RHS solves use.
type oracleLoad struct {
	from, to int
	amps     []float64
}

type oracleCase struct {
	nodes     int
	resistors []oracleResistor
	ties      []oracleTie
	loads     []oracleLoad
}

// oracleLanes is the right-hand-side count of the batched solves.
const oracleLanes = 3

// randomOracleCase draws a connected network of 2 to 60 nodes: a random
// spanning tree of resistors, extra random resistors (some to ground), one
// to three rail ties and a handful of loads.
func randomOracleCase(seed int64) oracleCase {
	rng := rand.New(rand.NewSource(seed))
	c := oracleCase{nodes: 2 + rng.Intn(59)}
	endpoint := func() int {
		if rng.Intn(8) == 0 {
			return Ground
		}
		return rng.Intn(c.nodes)
	}
	for i := 1; i < c.nodes; i++ {
		c.resistors = append(c.resistors, oracleResistor{rng.Intn(i), i, 0.05 + rng.Float64()})
	}
	for e := rng.Intn(2 * c.nodes); e > 0; e-- {
		if a, b := endpoint(), endpoint(); a != b {
			c.resistors = append(c.resistors, oracleResistor{a, b, 0.05 + rng.Float64()})
		}
	}
	for t := 1 + rng.Intn(3); t > 0; t-- {
		c.ties = append(c.ties, oracleTie{rng.Intn(c.nodes), 0.005 + 0.05*rng.Float64(), 0.5 + rng.Float64()})
	}
	for l := 1 + rng.Intn(c.nodes); l > 0; l-- {
		from, to := rng.Intn(c.nodes), endpoint()
		if from == to {
			continue
		}
		amps := make([]float64, oracleLanes)
		for i := range amps {
			amps[i] = 0.2 * rng.Float64()
		}
		c.loads = append(c.loads, oracleLoad{from, to, amps})
	}
	return c
}

// netlist builds the case with every load at its lane-0 value.
func (c oracleCase) netlist() (*Netlist, []LoadID) {
	n := New()
	n.Nodes(c.nodes)
	for _, r := range c.resistors {
		n.AddResistor(r.a, r.b, r.ohms)
	}
	for _, t := range c.ties {
		n.AddRailTie(t.node, t.ohms, t.volts)
	}
	ids := make([]LoadID, len(c.loads))
	for i, l := range c.loads {
		ids[i] = n.AddLoad(l.from, l.to, l.amps[0])
	}
	return n, ids
}

// reference solves the nodal equations of the case, loads at the given
// lane, by dense LU.
func (c oracleCase) reference(t *testing.T, lane int) []float64 {
	t.Helper()
	g := sparse.NewDense(c.nodes)
	rhs := make([]float64, c.nodes)
	for _, r := range c.resistors {
		s := 1 / r.ohms
		if r.a != Ground {
			g.Add(r.a, r.a, s)
		}
		if r.b != Ground {
			g.Add(r.b, r.b, s)
		}
		if r.a != Ground && r.b != Ground {
			g.Add(r.a, r.b, -s)
			g.Add(r.b, r.a, -s)
		}
	}
	for _, tie := range c.ties {
		g.Add(tie.node, tie.node, 1/tie.ohms)
		rhs[tie.node] += tie.volts / tie.ohms
	}
	for _, l := range c.loads {
		rhs[l.from] -= l.amps[lane]
		if l.to != Ground {
			rhs[l.to] += l.amps[lane]
		}
	}
	lu, err := g.LU()
	if err != nil {
		t.Fatalf("reference LU: %v", err)
	}
	return lu.Solve(rhs)
}

// mustMatchReference fails unless got agrees with want to 1e-8 relative
// to the largest reference voltage.
func mustMatchReference(t *testing.T, name string, want, got []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d voltages, want %d", name, len(got), len(want))
	}
	var scale, worst float64
	for i := range want {
		scale = math.Max(scale, math.Abs(want[i]))
		worst = math.Max(worst, math.Abs(got[i]-want[i]))
	}
	if worst > 1e-8*scale {
		t.Fatalf("%s: max deviation %.3g from the dense reference (scale %.3g)", name, worst, scale)
	}
}

func TestSolversMatchDenseReference(t *testing.T) {
	kinds := []SolverKind{Auto, DirectSparseND, PCGIC0, PCGJacobi, PCGAMG}
	for seed := int64(1); seed <= 40; seed++ {
		c := randomOracleCase(seed)
		want := make([][]float64, oracleLanes)
		for lane := range want {
			want[lane] = c.reference(t, lane)
		}
		for _, kind := range kinds {
			opts := SolveOptions{Solver: kind, Tol: 1e-13}
			name := fmt.Sprintf("seed %d (%d nodes) kind %d", seed, c.nodes, kind)

			net, _ := c.netlist()
			sol, err := net.Solve(opts)
			if err != nil {
				t.Fatalf("%s: Netlist.Solve: %v", name, err)
			}
			mustMatchReference(t, name+" Netlist.Solve", want[0], sol.Voltages())

			net, ids := c.netlist()
			prep, err := net.Compile(opts)
			if err != nil {
				t.Fatalf("%s: Compile: %v", name, err)
			}
			psol, err := prep.Solve(nil)
			if err != nil {
				t.Fatalf("%s: Prepared.Solve: %v", name, err)
			}
			mustMatchReference(t, name+" Prepared.Solve", want[0], psol.Voltages())

			for _, workers := range []string{"1", "3"} {
				t.Setenv(parallel.EnvWorkers, workers)
				sols, err := prep.SolveBatch(oracleLanes, func(lane int) {
					for i, l := range c.loads {
						prep.SetLoad(ids[i], l.amps[lane])
					}
				})
				if err != nil {
					t.Fatalf("%s: SolveBatch workers=%s: %v", name, workers, err)
				}
				for lane, s := range sols {
					mustMatchReference(t, fmt.Sprintf("%s SolveBatch workers=%s lane %d", name, workers, lane),
						want[lane], s.Voltages())
				}
			}
		}
	}
}
