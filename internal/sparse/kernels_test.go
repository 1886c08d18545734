package sparse

import (
	"math"
	"math/rand"
	"testing"
	"unsafe"
)

func bitsEqual(t *testing.T, name string, a, b []float64) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: length %d vs %d", name, len(a), len(b))
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			t.Fatalf("%s: element %d differs bitwise: %x vs %x (%g vs %g)",
				name, i, math.Float64bits(a[i]), math.Float64bits(b[i]), a[i], b[i])
		}
	}
}

// Past one block, the reductions must combine per-block partials in block
// order: an independent straight loop per vecBlock slice, summed in
// sequence, reproduces them bitwise.
func TestBlockedReductionsFollowBlockOrder(t *testing.T) {
	n := 3*vecBlock + 12345
	rng := rand.New(rand.NewSource(5))
	x, y := randVec(n, rng), randVec(n, rng)
	p, ap := randVec(n, rng), randVec(n, rng)
	const alpha = 0.37

	var dot, nrm, rr float64
	wantX := append([]float64(nil), x...)
	wantR := append([]float64(nil), y...)
	for lo := 0; lo < n; lo += vecBlock {
		hi := min(lo+vecBlock, n)
		var d, s, u float64
		for i := lo; i < hi; i++ {
			d += x[i] * y[i]
			s += x[i] * x[i]
			wantX[i] += alpha * p[i]
			wantR[i] -= alpha * ap[i]
			u += wantR[i] * wantR[i]
		}
		dot, nrm, rr = dot+d, nrm+s, rr+u
	}

	if got := blockedDot(x, y); math.Float64bits(got) != math.Float64bits(dot) {
		t.Errorf("blockedDot = %x, want %x", math.Float64bits(got), math.Float64bits(dot))
	}
	if got := blockedNormSq(x); math.Float64bits(got) != math.Float64bits(nrm) {
		t.Errorf("blockedNormSq = %x, want %x", math.Float64bits(got), math.Float64bits(nrm))
	}
	gotX := append([]float64(nil), x...)
	gotR := append([]float64(nil), y...)
	if got := fusedUpdateNormSq(gotX, p, gotR, ap, alpha); math.Float64bits(got) != math.Float64bits(rr) {
		t.Errorf("fusedUpdateNormSq = %x, want %x", math.Float64bits(got), math.Float64bits(rr))
	}
	bitsEqual(t, "fused x", wantX, gotX)
	bitsEqual(t, "fused r", wantR, gotR)
}

// Single-block vectors must reproduce the plain serial loop exactly, so
// all historical small-system results are unchanged by the blocked path.
func TestBlockedReductionSingleBlockMatchesSerialLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x, y := randVec(1000, rng), randVec(1000, rng)
	if got, want := blockedDot(x, y), Dot(x, y); math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("single-block blockedDot differs from Dot: %g vs %g", got, want)
	}
}

func TestPCGWorkspaceCacheLineAligned(t *testing.T) {
	for _, n := range []int{1, 7, 64, 1000, 65537} {
		w := NewPCGWorkspace(n)
		for name, v := range map[string][]float64{"r": w.r, "z": w.z, "p": w.p, "ap": w.ap} {
			if len(v) != n {
				t.Fatalf("n=%d: %s has length %d", n, name, len(v))
			}
			if addr := uintptr(unsafe.Pointer(&v[0])); addr%64 != 0 {
				t.Errorf("n=%d: %s not 64-byte aligned (addr %% 64 = %d)", n, name, addr%64)
			}
		}
	}
}
