package circuit

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"voltstack/internal/units"
)

func solveOrFatal(t *testing.T, n *Netlist, opts SolveOptions) *Solution {
	t.Helper()
	s, err := n.Solve(opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestVoltageDivider(t *testing.T) {
	n := New()
	mid := n.Node()
	n.AddRailTie(mid, 1, 1)       // 1V rail through 1 ohm
	n.AddResistor(mid, Ground, 1) // 1 ohm to ground
	s := solveOrFatal(t, n, SolveOptions{})
	if !units.ApproxEqual(s.V(mid), 0.5, 1e-12, 1e-12) {
		t.Errorf("V(mid) = %g, want 0.5", s.V(mid))
	}
}

func TestIRDropUnderLoad(t *testing.T) {
	n := New()
	vdd := n.Node()
	tie := n.AddRailTie(vdd, 0.01, 1.0)
	n.AddLoad(vdd, Ground, 5) // 5A load
	s := solveOrFatal(t, n, SolveOptions{})
	if want := 1.0 - 5*0.01; !units.ApproxEqual(s.V(vdd), want, 1e-12, 1e-12) {
		t.Errorf("V(vdd) = %g, want %g", s.V(vdd), want)
	}
	if got := s.TieCurrent(tie); !units.ApproxEqual(got, 5, 1e-12, 1e-12) {
		t.Errorf("tie current = %g, want 5", got)
	}
}

func TestResistorCurrentSign(t *testing.T) {
	n := New()
	a := n.Node()
	b := n.Node()
	n.AddRailTie(a, 0.001, 2)
	r := n.AddResistor(a, b, 1)
	n.AddResistor(b, Ground, 1)
	s := solveOrFatal(t, n, SolveOptions{})
	// Current flows from a (high) to b (low): positive.
	if got := s.ResistorCurrent(r); got <= 0 {
		t.Errorf("current a->b = %g, want positive", got)
	}
}

func TestLoadBetweenInternalNodes(t *testing.T) {
	// Two nodes, load from n1 to n2; both tied to rails.
	n := New()
	n1, n2 := n.Node(), n.Node()
	n.AddRailTie(n1, 0.1, 1.0)
	n.AddRailTie(n2, 0.1, 0.0)
	ld := n.AddLoad(n1, n2, 2)
	s := solveOrFatal(t, n, SolveOptions{})
	// 2A through each 0.1 ohm tie: V(n1)=0.8, V(n2)=0.2.
	if !units.ApproxEqual(s.V(n1), 0.8, 1e-12, 1e-12) || !units.ApproxEqual(s.V(n2), 0.2, 1e-12, 1e-12) {
		t.Errorf("V = %g, %g; want 0.8, 0.2", s.V(n1), s.V(n2))
	}
	if got := s.LoadPower(ld); !units.ApproxEqual(got, 2*0.6, 1e-12, 1e-12) {
		t.Errorf("load power = %g, want 1.2", got)
	}
}

func TestConverterRegulatesMidpoint(t *testing.T) {
	// Ideal stack: top at 2V (stiff), bottom grounded. No load on mid:
	// converter output must sit exactly at 1V with zero current.
	n := New()
	top, mid := n.Node(), n.Node()
	n.AddRailTie(top, 1e-6, 2.0)
	cv := n.AddConverter2to1(top, Ground, mid, 0.6, 0)
	s := solveOrFatal(t, n, SolveOptions{})
	if !units.ApproxEqual(s.V(mid), 1.0, 1e-6, 1e-9) {
		t.Errorf("V(mid) = %g, want 1.0", s.V(mid))
	}
	if j := s.ConverterOutputCurrent(cv); math.Abs(j) > 1e-9 {
		t.Errorf("converter idle current = %g, want 0", j)
	}
}

func TestConverterSourcesUnderLoad(t *testing.T) {
	// Load pulls mid down; converter must source J = Iload and the output
	// droop must be J*RSERIES below the ideal midpoint.
	const rs = 0.6
	const iload = 0.05
	n := New()
	top, mid := n.Node(), n.Node()
	n.AddRailTie(top, 1e-9, 2.0)
	cv := n.AddConverter2to1(top, Ground, mid, rs, 0)
	n.AddLoad(mid, Ground, iload)
	s := solveOrFatal(t, n, SolveOptions{})
	j := s.ConverterOutputCurrent(cv)
	if !units.ApproxEqual(j, iload, 1e-9, 1e-9) {
		t.Errorf("J = %g, want %g", j, iload)
	}
	if want := 1.0 - iload*rs; !units.ApproxEqual(s.V(mid), want, 1e-9, 1e-9) {
		t.Errorf("V(mid) = %g, want %g", s.V(mid), want)
	}
}

func TestConverterSinksWhenMidPushedHigh(t *testing.T) {
	// Inject current INTO mid: converter must sink (negative J) and mid
	// rises above the midpoint.
	n := New()
	top, mid := n.Node(), n.Node()
	n.AddRailTie(top, 1e-9, 2.0)
	cv := n.AddConverter2to1(top, Ground, mid, 0.6, 0)
	n.AddLoad(Ground, mid, 0.03) // push 30mA into mid
	s := solveOrFatal(t, n, SolveOptions{})
	if j := s.ConverterOutputCurrent(cv); !units.ApproxEqual(j, -0.03, 1e-9, 1e-9) {
		t.Errorf("J = %g, want -0.03", j)
	}
	if s.V(mid) <= 1.0 {
		t.Errorf("V(mid) = %g, should rise above 1.0", s.V(mid))
	}
}

func TestVoltageStackChargeRecycling(t *testing.T) {
	// Two stacked loads with a converter on the intermediate node.
	// I1 = 1A (top load), I2 = 2A (bottom load). The converter supplies
	// the difference J = I2 - I1 = 1A, and the off-chip current is
	// I1 + J/2 = 1.5A — half the 3A a regular PDN would draw.
	const rPad = 1e-3
	const rs = 0.1
	n := New()
	top, mid := n.Node(), n.Node()
	tie := n.AddRailTie(top, rPad, 2.0)
	cv := n.AddConverter2to1(top, Ground, mid, rs, 0)
	n.AddLoad(top, mid, 1)
	n.AddLoad(mid, Ground, 2)
	s := solveOrFatal(t, n, SolveOptions{})

	if j := s.ConverterOutputCurrent(cv); !units.ApproxEqual(j, 1, 1e-9, 1e-9) {
		t.Errorf("J = %g, want 1", j)
	}
	if iin := s.TieCurrent(tie); !units.ApproxEqual(iin, 1.5, 1e-9, 1e-9) {
		t.Errorf("input current = %g, want 1.5", iin)
	}
	vtop := 2.0 - 1.5*rPad
	wantMid := vtop/2 - 1.0*rs
	if !units.ApproxEqual(s.V(mid), wantMid, 1e-9, 1e-9) {
		t.Errorf("V(mid) = %g, want %g", s.V(mid), wantMid)
	}
}

func TestBalancedStackNeedsNoConverterCurrent(t *testing.T) {
	n := New()
	top, mid := n.Node(), n.Node()
	n.AddRailTie(top, 1e-3, 2.0)
	cv := n.AddConverter2to1(top, Ground, mid, 0.6, 0)
	n.AddLoad(top, mid, 1.5)
	n.AddLoad(mid, Ground, 1.5)
	s := solveOrFatal(t, n, SolveOptions{})
	if j := s.ConverterOutputCurrent(cv); math.Abs(j) > 1e-9 {
		t.Errorf("balanced stack: J = %g, want 0", j)
	}
}

func TestConverterParasiticLoss(t *testing.T) {
	const gPar = 1e-3
	const rPad = 1e-3
	n := New()
	top, mid := n.Node(), n.Node()
	tie := n.AddRailTie(top, rPad, 2.0)
	cv := n.AddConverter2to1(top, Ground, mid, 0.6, gPar)
	s := solveOrFatal(t, n, SolveOptions{})
	// Exact: Vtop = 2/(1 + gPar*rPad); I = gPar*Vtop; loss = gPar*Vtop².
	vtop := 2.0 / (1 + gPar*rPad)
	if got := s.ConverterParasiticLoss(cv); !units.ApproxEqual(got, gPar*vtop*vtop, 0, 1e-9) {
		t.Errorf("parasitic loss = %g, want %g", got, gPar*vtop*vtop)
	}
	// The parasitic current is drawn from the rail.
	if got := s.TieCurrent(tie); !units.ApproxEqual(got, gPar*vtop, 0, 1e-9) {
		t.Errorf("tie current = %g, want %g", got, gPar*vtop)
	}
}

func TestEnergyBalanceSimple(t *testing.T) {
	n := New()
	top, mid := n.Node(), n.Node()
	n.AddRailTie(top, 1e-2, 2.0)
	n.AddConverter2to1(top, Ground, mid, 0.6, 1e-4)
	n.AddLoad(top, mid, 0.8)
	n.AddLoad(mid, Ground, 1.9)
	s := solveOrFatal(t, n, SolveOptions{})
	if e := s.EnergyBalanceError(); e > 1e-9 {
		t.Errorf("energy balance error = %g", e)
	}
}

// randomStackNetwork builds a random but well-posed multi-node network.
func randomStackNetwork(rng *rand.Rand) *Netlist {
	n := New()
	layers := 2 + rng.Intn(4)
	cols := 2 + rng.Intn(3)
	// rails[l][c]: node grid; rail l=0 is ground.
	nodes := make([][]int, layers+1)
	for l := range nodes {
		nodes[l] = make([]int, cols)
		for c := range nodes[l] {
			if l == 0 {
				nodes[l][c] = Ground
			} else {
				nodes[l][c] = n.Node()
			}
		}
	}
	vtop := float64(layers)
	for c := 0; c < cols; c++ {
		n.AddRailTie(nodes[layers][c], 1e-3+rng.Float64()*1e-2, vtop)
	}
	for l := 1; l <= layers; l++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				n.AddResistor(nodes[l][c], nodes[l][c+1], 0.01+rng.Float64()*0.1)
			}
			n.AddLoad(nodes[l][c], nodes[l-1][c], rng.Float64())
			if l+1 <= layers {
				n.AddConverter2to1(nodes[l+1][c], nodes[l-1][c], nodes[l][c], 0.3+rng.Float64(), rng.Float64()*1e-3)
			}
		}
	}
	return n
}

func TestEnergyBalanceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := randomStackNetwork(rng)
		s, err := n.Solve(SolveOptions{Solver: DirectSparseND})
		if err != nil {
			return false
		}
		return s.EnergyBalanceError() < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestSolversAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	n := randomStackNetwork(rng)
	sd, err := n.Solve(SolveOptions{Solver: DirectSparseND})
	if err != nil {
		t.Fatal(err)
	}
	si, err := n.Solve(SolveOptions{Solver: PCGAMG, Tol: 1e-12})
	if err != nil {
		t.Fatalf("AMG-PCG: %v", err)
	}
	for node := 0; node < n.NumNodes(); node++ {
		if !units.ApproxEqual(sd.V(node), si.V(node), 1e-7, 1e-6) {
			t.Fatalf("AMG-PCG disagrees at node %d: %g vs %g", node, sd.V(node), si.V(node))
		}
	}
}

// TestSolveOptionsResolve pins the node counts at which Auto switches
// solver kind, on both sides of every edge of the right-hand-side rule,
// and that an explicit kind passes through at any size and RHS.
func TestSolveOptionsResolve(t *testing.T) {
	cases := []struct {
		solver SolverKind
		rhs    int
		nodes  int
		want   SolverKind
	}{
		{Auto, 0, 1, DirectSparseND},
		{Auto, 0, 4000, DirectSparseND},
		{Auto, 0, 4001, PCGAMG},
		{Auto, 0, 200_001, PCGAMG},
		{Auto, 9, 4000, DirectSparseND},
		{Auto, 9, 4001, PCGAMG},
		{Auto, 10, 4001, DirectSparseND},
		{Auto, 10, 8194, DirectSparseND},
		{Auto, 10, 8195, PCGAMG},
		{Auto, 99, 8194, DirectSparseND},
		{Auto, 99, 8195, PCGAMG},
		{Auto, 100, 8195, DirectSparseND},
		{Auto, 100, 16_386, DirectSparseND},
		{Auto, 100, 16_387, PCGAMG},
		{Auto, 999, 16_386, DirectSparseND},
		{Auto, 999, 16_387, PCGAMG},
		{Auto, 1000, 16_387, DirectSparseND},
		{Auto, 1000, 200_000, DirectSparseND},
		{Auto, 1000, 200_001, PCGAMG},
		{PCGAMG, 1000, 1, PCGAMG},
		{DirectSparseND, 0, 200_001, DirectSparseND},
		{PCGAMG, 0, 4000, PCGAMG},
	}
	for _, c := range cases {
		if got, _, _ := (SolveOptions{Solver: c.solver, RHS: c.rhs}).resolve(c.nodes); got != c.want {
			t.Errorf("kind %d with RHS %d at %d nodes resolves to %d, want %d", c.solver, c.rhs, c.nodes, got, c.want)
		}
	}
}

func TestFloatingNodeError(t *testing.T) {
	n := New()
	a := n.Node()
	_ = n.Node() // floating node, never connected
	n.AddRailTie(a, 1, 1)
	if _, err := n.Solve(SolveOptions{Solver: DirectSparseND}); err == nil {
		t.Error("expected floating-node error")
	}
}

// TestSingularConverterNetlistFails: a converter whose top and bottom
// reach the rest of the network only through the converter passes
// CheckConnectivity, but its stamp leaves the top−bottom mode free, so the
// matrix is singular. Every solver kind must report ErrFloating rather
// than return voltages of order 1e15.
func TestSingularConverterNetlistFails(t *testing.T) {
	for _, kind := range []SolverKind{DirectSparseND, PCGAMG} {
		n := New()
		top, bot, mid := n.Node(), n.Node(), n.Node()
		n.AddConverter2to1(top, bot, mid, 0.1, 0)
		n.AddRailTie(mid, 0.01, 1)
		n.AddLoad(top, Ground, 0.5)
		if err := n.CheckConnectivity(); err != nil {
			t.Fatalf("connectivity check rejects the netlist: %v", err)
		}
		s, err := n.Solve(SolveOptions{Solver: kind})
		if err == nil {
			t.Errorf("kind %d: solved a singular netlist, V(top) = %g", kind, s.V(top))
		} else if !errors.Is(err, ErrFloating) {
			t.Errorf("kind %d: error %v does not wrap ErrFloating", kind, err)
		}
	}
}

func TestEmptyNetlist(t *testing.T) {
	n := New()
	s, err := n.Solve(SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if s.TotalInputPower() != 0 || s.TotalLoadPower() != 0 {
		t.Error("empty netlist should have zero powers")
	}
}

func TestInvalidElementsPanic(t *testing.T) {
	cases := []struct {
		name string
		f    func(n *Netlist, a int)
	}{
		{"zero resistor", func(n *Netlist, a int) { n.AddResistor(a, Ground, 0) }},
		{"negative resistor", func(n *Netlist, a int) { n.AddResistor(a, Ground, -1) }},
		{"self loop", func(n *Netlist, a int) { n.AddResistor(a, a, 1) }},
		{"ground tie", func(n *Netlist, a int) { n.AddRailTie(Ground, 1, 1) }},
		{"zero tie resistance", func(n *Netlist, a int) { n.AddRailTie(a, 0, 1) }},
		{"bad node", func(n *Netlist, a int) { n.AddResistor(a, 99, 1) }},
		{"zero converter rs", func(n *Netlist, a int) { n.AddConverter2to1(a, Ground, a, 0, 0) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			n := New()
			a := n.Node()
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", c.name)
				}
			}()
			c.f(n, a)
		})
	}
}

func TestGridIRDropSymmetry(t *testing.T) {
	// A symmetric 3x3 grid with a center load: corner voltages must match.
	n := New()
	grid := make([]int, 9)
	for i := range grid {
		grid[i] = n.Node()
	}
	at := func(x, y int) int { return grid[y*3+x] }
	for y := 0; y < 3; y++ {
		for x := 0; x < 3; x++ {
			if x+1 < 3 {
				n.AddResistor(at(x, y), at(x+1, y), 0.1)
			}
			if y+1 < 3 {
				n.AddResistor(at(x, y), at(x, y+1), 0.1)
			}
		}
	}
	for _, corner := range []int{at(0, 0), at(2, 0), at(0, 2), at(2, 2)} {
		n.AddRailTie(corner, 0.05, 1.0)
	}
	n.AddLoad(at(1, 1), Ground, 3)
	s := solveOrFatal(t, n, SolveOptions{})
	v00 := s.V(at(0, 0))
	for _, corner := range []int{at(2, 0), at(0, 2), at(2, 2)} {
		if !units.ApproxEqual(s.V(corner), v00, 1e-12, 1e-10) {
			t.Errorf("corner voltage asymmetry: %g vs %g", s.V(corner), v00)
		}
	}
	if s.V(at(1, 1)) >= v00 {
		t.Error("center (loaded) node should droop below corners")
	}
}
