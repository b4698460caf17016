package funcmech

import (
	"math/rand"

	"funcmech/internal/core"
	"funcmech/internal/noise"
)

// PostProcess selects how an unbounded noisy objective is repaired; see
// paper §6 and the core package documentation.
type PostProcess = core.PostProcess

// Post-processing strategies, re-exported from the mechanism core.
const (
	// RegularizeAndTrim is the paper's recommended pipeline (default).
	RegularizeAndTrim = core.PostProcessRegularizeAndTrim
	// RegularizeOnly applies §6.1 ridge regularization alone.
	RegularizeOnly = core.PostProcessRegularizeOnly
	// Resample re-perturbs until bounded, at privacy cost 2ε (Lemma 5).
	Resample = core.PostProcessResample
	// NoPostProcess fails on unbounded noisy objectives.
	NoPostProcess = core.PostProcessNone
)

type config struct {
	opts      core.Options
	rng       *rand.Rand
	seed      int64
	hasSeed   bool
	threshold *float64
	intercept bool
	ridge     float64
}

// Option customizes a regression call.
type Option func(*config)

// WithPostProcess selects the §6 repair strategy.
func WithPostProcess(p PostProcess) Option {
	return func(c *config) { c.opts.PostProcess = p }
}

// WithLambdaFactor overrides the regularization rule λ = factor×sd(noise);
// the paper uses 4.
func WithLambdaFactor(f float64) Option {
	return func(c *config) { c.opts.LambdaFactor = f }
}

// WithParallelism fixes the reduction plan of the fold that accumulates the
// objective — the fit's only pass over the records, and its dominant cost
// for large datasets: the records split into one shard per worker (at least
// 2048 records each), folded in parallel and merged in shard order. n = 0
// (the default) uses runtime.GOMAXPROCS(0); n = 1 forces the serial sweep.
// The knob affects throughput only: noise is drawn after accumulation from
// the same deterministic stream, so the privacy guarantee and the WithSeed
// reproducibility contract are unchanged at a fixed n. Coefficients
// accumulated at different parallelism levels agree to floating-point
// round-off (the summation tree differs), so models fitted with the same
// seed but different n can differ in their last bits.
func WithParallelism(n int) Option {
	return func(c *config) { c.opts.Parallelism = n }
}

// WithReproducible selects the compute tier the objective accumulation runs
// on. The default, true, is the reproducible tier: results are bit-identical
// to the scalar record-by-record fold at any fixed parallelism, the contract
// every refit/restore bit-identity guarantee in this repository builds on.
// WithReproducible(false) switches to the fast-math tier — per-cell
// accumulation split across four independent lanes with fused multiply-adds
// and Kahan-compensated lane reduction — which is measurably faster on wide
// designs but only agrees with the exact fold to within an analytic error
// bound (≈ a few ULPs of the accumulated magnitude), not bitwise. The
// deviation is deterministic for a fixed input. Privacy is indifferent to
// the tier: noise calibration and draws are identical, so ε is unchanged.
func WithReproducible(r bool) Option {
	return func(c *config) { c.opts.FastMath = !r }
}

// Governor arbitrates accumulation workers across concurrent fits sharing
// one process; see WithGovernor.
type Governor = core.Governor

// WithGovernor submits the fit's resolved parallelism to a process-global
// arbiter before the accumulation pool spins up, so many fits in flight
// cannot oversubscribe the machine: the fit uses only the worker count the
// governor grants (≥ 1) and returns it when the data pass finishes. This is
// the knob a serving layer uses to keep in-flight fits × per-fit
// parallelism under a GOMAXPROCS-derived cap. Acquire may block until
// capacity frees, delaying the fit rather than degrading neighbours.
//
// The grant decides only how many goroutines work through the fixed shard
// plan WithParallelism sets, never the shards, so FitTask's models, sealed
// coefficients and every fit released from them (which is how fmserve
// serves /v1/fit) are bit-identical at a fixed seed whatever the grant. The
// privacy guarantee is unchanged. A nil governor is ignored.
func WithGovernor(g Governor) Option {
	return func(c *config) { c.opts.Governor = g }
}

// Probe receives phase boundaries (kernel, solve, noise) from a fit; see
// WithProbe.
type Probe = core.Probe

// WithProbe installs a phase probe on the fit: the mechanism reports when
// objective accumulation (kernel), minimization (solve), and Laplace
// perturbation (noise) start and end, so a serving layer can attribute
// per-request time to spans. The probe observes only phase names and
// durations — never coefficients or records — and the mechanism core itself
// never reads a clock; whatever timing the probe does happens on the
// caller's side. A nil probe is ignored.
func WithProbe(p Probe) Option {
	return func(c *config) { c.opts.Probe = p }
}

// WithSeed makes the mechanism's noise deterministic — for reproduction and
// tests. Without a seed (or WithRand), a random seed is drawn. At a fixed
// seed and an explicit WithParallelism the weights are bit-identical run to
// run, whatever a governor grants; the default parallelism follows the core
// count, so for bits that match across machines pin it (WithParallelism(1)
// is the portable choice).
func WithSeed(seed int64) Option {
	return func(c *config) { c.seed = seed; c.hasSeed = true }
}

// WithRand supplies the random source directly; it overrides WithSeed.
func WithRand(rng *rand.Rand) Option {
	return func(c *config) { c.rng = rng }
}

// WithBinarizeThreshold makes LogisticRegression derive the boolean target
// as (target > t), the transformation the paper applies to Annual Income.
// Without it the dataset's target must already be 0/1.
func WithBinarizeThreshold(t float64) Option {
	return func(c *config) { c.threshold = &t }
}

// WithRidge adds an L2 penalty weight·‖ω‖² to the linear-regression
// objective before perturbation (Hoerl–Kennard shrinkage as a modelling
// choice, distinct from the §6.1 noise-repair ridge). The penalty involves
// no data, so the privacy calibration is unchanged. Linear regression only.
func WithRidge(weight float64) Option {
	return func(c *config) { c.ridge = weight }
}

// WithIntercept adds a constant bias term to the model — the "more general
// form" of the paper's footnote 2. Internally an always-one feature column
// is appended before normalization, so the dimensionality (and therefore the
// sensitivity Δ) grows by one; the privacy guarantee is unchanged. Use it
// whenever the target's level is not zero at the feature-space origin, which
// is nearly always for raw data.
func WithIntercept() Option {
	return func(c *config) { c.intercept = true }
}

func buildConfig(opts []Option) config {
	var c config
	for _, o := range opts {
		o(&c)
	}
	if c.rng == nil {
		if c.hasSeed {
			c.rng = noise.NewRand(c.seed)
		} else {
			//fmlint:ignore nakedrand documented default: unseeded fits draw a fresh stream; callers wanting reproducibility pass WithSeed
			c.rng = rand.New(rand.NewSource(rand.Int63()))
		}
	}
	return c
}

// Report describes what one differentially private fit consumed and did.
type Report struct {
	// Epsilon is the privacy budget actually spent: ε, or 2ε under
	// Resample.
	Epsilon float64
	// Delta is the coefficient sensitivity (2(d+1)² linear, d²/4+3d
	// logistic).
	Delta float64
	// NoiseScale is Δ/ε, the Laplace scale per coefficient.
	NoiseScale float64
	// Lambda is the §6.1 ridge weight applied (0 when none).
	Lambda float64
	// Trimmed counts eigenvalues removed by §6.2 spectral trimming.
	Trimmed int
	// Resamples counts Lemma 5 retries.
	Resamples int
}

func reportFrom(res *core.Result) *Report {
	return &Report{
		Epsilon:    res.EpsilonSpent,
		Delta:      res.Delta,
		NoiseScale: res.NoiseScale,
		Lambda:     res.Lambda,
		Trimmed:    res.Trimmed,
		Resamples:  res.Resamples,
	}
}
