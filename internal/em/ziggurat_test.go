package em

import (
	"math"
	"math/rand"
	"testing"
)

// drawNormal is trialPass's draw: the ziggurat's fast path on the stream's
// next word, and normalMiss for a word that misses it. (trialPass's own
// copy is held to math/rand per trial by the reference tests.)
func drawNormal(s *splitmix) float64 {
	j := int32(s.Uint64() >> 32)
	i := j & 0x7F
	z := float64(j) * float64(wn[i])
	if absInt32(j) >= kn[i] {
		z = s.normalMiss(j)
	}
	return z
}

// tapSource is the refSource oracle, counting the 63-bit words math/rand
// takes from it.
type tapSource struct {
	*refSource
	words int
}

func (s *tapSource) Int63() int64 {
	s.words++
	return s.refSource.Int63()
}

// zigBranches counts which way the ziggurat took each draw, classified from
// the draw's first word and the number of words it took from the oracle.
type zigBranches struct {
	fast         [128][2]int // by strip and sign (0: j < 0, 1: j >= 0)
	strip1       int         // kn[1] = 0: every draw in strip 1 takes the wedge
	wedgeAccept  int
	wedgeReject  int // a wedge test failed, so the draw took a new word
	tail         int // strip 0 outside its fast region: the base-strip tail
	floatResamps int // Float64 rounded to 1 and drew again
}

// compareDraw draws one normal from s and one from the oracle, which must
// start at the same state, and fails unless the two agree bitwise and end
// at the same state. It records the oracle's branch in br.
func compareDraw(t *testing.T, s *splitmix, ref *tapSource, rng *rand.Rand, br *zigBranches) {
	t.Helper()
	peek := *ref.refSource
	first := peek.Uint64()
	before := ref.words
	want := rng.NormFloat64()
	got := drawNormal(s)
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("draw from word %#x: got %v (%#x), math/rand %v (%#x)",
			first, got, math.Float64bits(got), want, math.Float64bits(want))
	}
	if s.state != ref.state {
		t.Fatalf("draw from word %#x: state %#x after the draw, math/rand's %#x", first, s.state, ref.state)
	}
	words := ref.words - before
	j := int32(first >> 32)
	i := j & 0x7F
	if i == 1 {
		br.strip1++
	}
	switch {
	case absInt32(j) < kn[i]:
		sign := 0
		if j >= 0 {
			sign = 1
		}
		br.fast[i][sign]++
	case i == 0:
		br.tail++
	case words == 2:
		br.wedgeAccept++
	default:
		br.wedgeReject++
	}
}

// unmix64 inverts mix64: each xorshift and each multiply by an odd
// constant is a bijection of the 64-bit words.
func unmix64(z uint64) uint64 {
	z = unxorshift(z, 31)
	z *= oddInverse(0x94d049bb133111eb)
	z = unxorshift(z, 27)
	z *= oddInverse(0xbf58476d1ce4e5b9)
	return unxorshift(z, 30)
}

// unxorshift inverts z ^= z >> s.
func unxorshift(z uint64, s uint) uint64 {
	x := z
	for k := s; k < 64; k += s {
		x ^= z >> k
	}
	return x
}

// oddInverse returns the inverse of the odd c modulo 2⁶⁴ by Newton's
// iteration, which doubles the correct low bits each step from the 3 that
// c·c ≡ 1 (mod 8) gives.
func oddInverse(c uint64) uint64 {
	x := c
	for k := 0; k < 5; k++ {
		x *= 2 - c*x
	}
	return x
}

// TestTrialNormalsMatchMathRand holds the inlined ziggurat to math/rand's
// NormFloat64 on the trial streams, draw by draw and state by state, and
// checks that the draws reached every branch: the fast path of every strip
// at both signs, strip 1, a wedge accept, a wedge reject, the base-strip
// tail and Float64's resample.
func TestTrialNormalsMatchMathRand(t *testing.T) {
	const streams, draws = 32, 1 << 15 // 2²⁰ draws
	var br zigBranches
	for k := 0; k < streams; k++ {
		seed, tr := int64(k/8+1), int64(k%8)*1_000_003
		s := newTrialSource(seed, tr)
		ref := &tapSource{refSource: &refSource{
			state: refMix(refMix(uint64(seed)) ^ refMix(uint64(tr)+0x9e3779b97f4a7c15)),
		}}
		if s.state != ref.state {
			t.Fatalf("seed %d trial %d: stream starts at %#x, reference at %#x", seed, tr, s.state, ref.state)
		}
		rng := rand.New(ref)
		for d := 0; d < draws; d++ {
			compareDraw(t, &s, ref, rng, &br)
		}
	}

	// Float64 rounds Int63 up to 1 for its top 512 values (probability
	// 2⁻⁵⁴), which no drawn stream reaches; build streams that do. A word
	// u ≥ 2⁶⁴ − 1024 comes from state unmix64(u); when the word before it
	// misses the fast path, a draw that starts there hands u to Float64.
	for x := uint64(1); x < 1<<40; x = x*3 + 7 {
		if got := mix64(unmix64(x)); got != x {
			t.Fatalf("mix64(unmix64(%#x)) = %#x", x, got)
		}
	}
	if f := float64(int64(^uint64(1023)>>1)) / (1 << 63); f != 1 {
		t.Fatalf("word %#x gives Float64 %v, want the resample's 1", ^uint64(1023), f)
	}
	var gamma uint64 = 0x9e3779b97f4a7c15
	for low := uint64(0); low < 1024; low++ {
		next := unmix64(^uint64(0) - low)
		j := int32(mix64(next-gamma) >> 32)
		if absInt32(j) < kn[j&0x7F] {
			continue
		}
		start := next - 2*gamma
		s := splitmix{state: start}
		ref := &tapSource{refSource: &refSource{state: start}}
		compareDraw(t, &s, ref, rand.New(ref), &zigBranches{})
		if ref.words < 3 {
			t.Fatalf("state %#x: the draw took %d words, want a resample's extra word", start, ref.words)
		}
		br.floatResamps++
	}

	for i := range br.fast {
		if kn[i] == 0 {
			continue
		}
		if br.fast[i][0] == 0 || br.fast[i][1] == 0 {
			t.Errorf("strip %d: fast path hit %d times at j < 0 and %d at j >= 0, want both", i, br.fast[i][0], br.fast[i][1])
		}
	}
	for _, c := range []struct {
		name string
		n    int
	}{
		{"strip 1", br.strip1},
		{"wedge accept", br.wedgeAccept},
		{"wedge reject", br.wedgeReject},
		{"base-strip tail", br.tail},
		{"Float64 resample", br.floatResamps},
	} {
		if c.n == 0 {
			t.Errorf("no draw reached the %s", c.name)
		}
	}
	t.Logf("strip 1 %d, wedge accept %d, wedge reject %d, tail %d, Float64 resample %d",
		br.strip1, br.wedgeAccept, br.wedgeReject, br.tail, br.floatResamps)
}
