package em

import (
	"context"
	"log/slog"
	"math"
	"math/rand"
	"sort"
	"time"

	"voltstack/internal/parallel"
	"voltstack/internal/telemetry"
)

// Monte Carlo instrumentation: trial counts and throughput (trials/sec)
// size the sampling budget against wall-clock. No-ops unless telemetry is
// enabled.
var (
	mMCRuns       = telemetry.NewCounter("em_mc_runs_total")
	mMCTrials     = telemetry.NewCounter("em_mc_trials_total")
	mMCRunSeconds = telemetry.NewHistogram("em_mc_run_seconds")
	mMCRate       = telemetry.NewGauge("em_mc_trials_per_second")
)

// SimulateMedianLifetime estimates the group's expected EM-damage-free
// lifetime by Monte Carlo instead of the analytic CDF product: each trial
// draws one lognormal lifetime per conductor and records the earliest
// failure; the estimate is the median of those minima. It exists as an
// independent cross-check of MedianLifetime (the two converge as trials
// grow) and as the starting point for failure analyses the closed form
// cannot express (correlated wearout, replacement policies).
//
// Trials are split across a worker pool sized by parallel.DefaultWorkers
// (GOMAXPROCS, overridable via VOLTSTACK_WORKERS). Every trial draws
// from its own RNG stream derived from (seed, trial index) by a SplitMix64
// hash, so the estimate depends only on (group, trials, seed) — it is
// bit-identical for any worker count and any scheduling.
//
// Unstressed conductors (infinite medians) never fail and are skipped.
// Cancelling ctx stops the run between batches of trials and returns
// ctx's error.
func (g *Group) SimulateMedianLifetime(ctx context.Context, trials int, seed int64) (float64, error) {
	return g.simulate(ctx, trials, seed, 0)
}

// SimulateMedianLifetimeWorkers is SimulateMedianLifetime, run to
// completion, with an explicit worker count; workers < 1 selects the
// default. The result is identical for every worker count (see
// SimulateMedianLifetime).
func (g *Group) SimulateMedianLifetimeWorkers(trials int, seed int64, workers int) (float64, error) {
	return g.simulate(context.Background(), trials, seed, workers)
}

func (g *Group) simulate(ctx context.Context, trials int, seed int64, workers int) (float64, error) {
	if len(g.runs) == 0 {
		return 0, ErrEmptyGroup
	}
	if trials < 1 {
		trials = 1
	}
	floor := g.fastFloor()
	t0 := telemetry.Now()
	prog := telemetry.NewProgress("em-montecarlo", trials)
	minima := make([]float64, trials)
	// Trials are dispatched to the pool in batches rather than one by one:
	// each dispatch has scheduling overhead (channel send, closure call),
	// and amortizing it over trialBatch trials keeps the pool busy with
	// work, not bookkeeping. Because every trial draws from its own
	// (seed, trial)-derived stream, the batching changes nothing about the
	// estimate — it is bit-identical to per-trial dispatch.
	const trialBatch = 64
	nBatches := (trials + trialBatch - 1) / trialBatch
	err := parallel.NewPool(workers).ForEachN(ctx, nBatches, func(bi int) error {
		lo := bi * trialBatch
		hi := lo + trialBatch
		if hi > trials {
			hi = trials
		}
		for tr := lo; tr < hi; tr++ {
			minima[tr] = g.trialMinimum(seed, int64(tr), floor)
		}
		prog.Add(hi - lo)
		return nil
	})
	if err != nil {
		return 0, err
	}
	prog.Finish()
	mMCRuns.Add(1)
	mMCTrials.Add(int64(trials))
	mMCRunSeconds.Since(t0)
	if !t0.IsZero() {
		if dt := time.Since(t0).Seconds(); dt > 0 {
			mMCRate.Set(float64(trials) / dt)
		}
	}
	sort.Float64s(minima)
	mid := len(minima) / 2
	med := minima[mid]
	if len(minima)%2 == 0 {
		med = (minima[mid-1] + minima[mid]) / 2
	}
	if telemetry.EventsEnabled() {
		// Anomaly check: a worst trial more than ~6σ below the median of
		// minima (or non-physical) means a conductor drew an implausible
		// lifetime — usually a sign of corrupted currents or parameters
		// rather than honest sampling noise.
		worst := minima[0]
		limit := med / math.Exp(6*g.sigma)
		if math.IsNaN(worst) || worst <= 0 || worst < limit {
			telemetry.Event(slog.LevelWarn, "em: anomalous Monte Carlo trial",
				slog.Float64("worst_minimum", worst),
				slog.Float64("median", med),
				slog.Float64("sigma", g.sigma),
				slog.Int("trials", trials))
		}
	}
	return med, nil
}

// Fast-pass constants of trialMinimum. keySlack is the log-time margin
// within which a conductor's product is evaluated; expSafe bounds |σZ|
// inside the range where math.Exp returns a finite normal float (about
// −708.4 to 709.4 on amd64). DESIGN §7 derives both.
const (
	keySlack = 1e-9
	expSafe  = 700
)

// fastFloor returns the smallest fast-pass key trialMinimum accepts:
// max log t50 − expSafe. The keys need log t50 to within an ulp, which
// math.Log gives only for normal floats (on amd64 it returns about
// −709.09 for every subnormal), so a group with a subnormal median gets
// +Inf: its fast passes are accepted only if they evaluated every product.
func (g *Group) fastFloor() float64 {
	minT50, maxLog := math.Inf(1), math.Inf(-1)
	for _, r := range g.runs {
		minT50, maxLog = math.Min(minT50, r.t50), math.Max(maxLog, r.logT50)
	}
	if minT50 < 0x1p-1022 {
		return math.Inf(1)
	}
	return maxLog - expSafe
}

// trialMinimum returns trial tr's earliest failure: the smallest
// t50·exp(σZ) over the stressed conductors in insertion order, each with
// its own normal draw Z — bit-identical to evaluating every product.
//
// The fast pass ranks conductors by the key log t50 + σZ, which needs no
// exp, and evaluates the product only for a conductor whose key is within
// keySlack of the smallest key so far, the reference. A skipped
// conductor's product is then no smaller than the reference's, provided
// exp(σZ) is a normal float for both. Two checks ensure that: a key
// becomes the reference only if σZ <= expSafe, and the pass is accepted
// only if its last reference key is at least floor (see fastFloor), which
// rules out σZ < −expSafe for every skipped and every reference conductor.
// A rejected trial is replayed from its stream with an infinite slack,
// which evaluates every product (its cut is +Inf, or NaN after a −Inf
// key, and key > cut is never true).
func (g *Group) trialMinimum(seed, tr int64, floor float64) float64 {
	if first, ref := g.trialPass(seed, tr, keySlack); ref >= floor {
		return first
	}
	first, _ := g.trialPass(seed, tr, math.Inf(1))
	return first
}

// trialPass runs trial tr, evaluating the products of the conductors whose
// key is within slack of the reference key, and returns the smallest
// product evaluated and the last reference key (+Inf if none was set).
func (g *Group) trialPass(seed, tr int64, slack float64) (first, ref float64) {
	rng := rand.New(newTrialSource(seed, tr))
	first, ref = math.Inf(1), math.Inf(1)
	cut := math.Inf(1)
	for _, r := range g.runs {
		for k := 0; k < r.n; k++ {
			// The conversion keeps σZ rounded exactly as exp receives it
			// (no fused multiply-add into the key).
			a := float64(g.sigma * rng.NormFloat64())
			key := r.logT50 + a
			if key > cut {
				continue
			}
			if t := r.t50 * math.Exp(a); t < first {
				first = t
			}
			if key < ref && a <= expSafe {
				ref, cut = key, key+slack
			}
		}
	}
	return first, ref
}

// splitmix is a SplitMix64 generator (Steele et al., "Fast splittable
// pseudorandom number generators"). One instance per Monte Carlo trial
// gives each trial an independent, cheaply-constructed stream: unlike
// rand.NewSource there is no expensive seeding step, so deriving one
// source per trial costs a few arithmetic ops.
type splitmix struct{ state uint64 }

// newTrialSource derives the stream for one (seed, trial) pair. Both
// inputs are finalizer-hashed so adjacent seeds and adjacent trials land
// at unrelated points of the SplitMix64 cycle (a plain seed+trial start
// would make trial t+1 an offset-by-one replay of trial t).
func newTrialSource(seed, trial int64) *splitmix {
	z := mix64(uint64(seed))
	z = mix64(z ^ mix64(uint64(trial)+0x9e3779b97f4a7c15))
	return &splitmix{state: z}
}

// mix64 is the SplitMix64 output finalizer, a strong 64-bit bijection.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (s *splitmix) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	return mix64(s.state)
}

func (s *splitmix) Int63() int64 { return int64(s.Uint64() >> 1) }

// Seed is a no-op: a trial stream is fixed at construction.
func (s *splitmix) Seed(int64) {}
