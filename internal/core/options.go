package core

import "fmt"

// PostProcess selects how the mechanism repairs a noisy objective that has
// no minimum (paper §6).
type PostProcess int

const (
	// PostProcessRegularizeAndTrim applies ridge regularization (§6.1) and,
	// when the regularized matrix is still not positive definite, spectral
	// trimming (§6.2). This is the paper's recommended pipeline and the
	// default.
	PostProcessRegularizeAndTrim PostProcess = iota
	// PostProcessRegularizeOnly applies only §6.1; the run fails with
	// ErrUnbounded when regularization is not enough.
	PostProcessRegularizeOnly
	// PostProcessResample re-perturbs until the objective is bounded
	// (Lemma 5), doubling the privacy cost to 2ε.
	PostProcessResample
	// PostProcessNone performs no repair; unbounded objectives fail.
	PostProcessNone
)

// String implements fmt.Stringer.
func (p PostProcess) String() string {
	switch p {
	case PostProcessRegularizeAndTrim:
		return "regularize+trim"
	case PostProcessRegularizeOnly:
		return "regularize"
	case PostProcessResample:
		return "resample"
	case PostProcessNone:
		return "none"
	default:
		return fmt.Sprintf("PostProcess(%d)", int(p))
	}
}

// Governor arbitrates objective-accumulation workers across concurrent
// mechanism runs sharing one process. Before spinning up its worker pool a
// run asks for the parallelism it wants; the governor returns how many
// workers it may actually use (≥ 1) plus a release func the run must call
// when accumulation finishes. Acquire may block until capacity frees up. A
// Governor must be safe for concurrent use.
//
// The grant sets only how many goroutines work through the run's fixed
// shard plan (FoldPlan), never the shards, so the coefficients — and every
// release from them at a fixed seed — are bit-identical whatever the grant.
type Governor interface {
	Acquire(want int) (granted int, release func())
}

// Phase names reported to a Probe. They match the serving layer's span
// vocabulary (internal/obs), so a trace shows kernel vs solve vs noise time
// without core ever naming obs.
const (
	// PhaseKernel is the O(n·d²) objective accumulation, measured from
	// after the governor grant (queue wait is the caller's span, not
	// compute time).
	PhaseKernel = "kernel"
	// PhaseSolve is minimization: the Cholesky solve, plus spectral
	// trimming when it runs.
	PhaseSolve = "solve"
	// PhaseNoise is the Laplace perturbation of the objective.
	PhaseNoise = "noise"
)

// Probe receives phase boundaries from a mechanism run: Phase is called when
// a named phase starts and returns the func the run calls when it ends. The
// clock lives entirely on the Probe's side — core packages never read
// time.Now (fmlint's nakedrand invariant), the serving layer injects a
// span-backed implementation via Options. A Probe must tolerate calls from
// whatever goroutine runs the mechanism.
type Probe interface {
	Phase(name string) func()
}

// TierProbe is a Probe that additionally receives the compute tier a phase
// ran under — for the kernel phase, which of the kernel v2 dispatch targets
// (KernelTier) did the work. Probes that don't care implement only Phase.
type TierProbe interface {
	Probe
	PhaseTier(name, tier string) func()
}

// Kernel tier names reported through TierProbe and documented in
// docs/ARCHITECTURE.md's dispatch table (machine-checked by
// scripts/check_docs.sh).
const (
	// TierVector is the hand-vectorized AVX2 reproducible kernel —
	// bit-identical to the scalar fold (lanes run across cells, not
	// records); selected on capable amd64 hardware.
	TierVector = "vector"
	// TierSpecialized is the compile-time d-specialized reproducible kernel.
	TierSpecialized = "specialized"
	// TierGeneric is the adaptive-tile generic reproducible kernel.
	TierGeneric = "generic"
	// TierFast is the fused/lane kernel behind WithReproducible(false).
	TierFast = "fast"
)

// KernelTier names the kernel the accumulation dispatch selects for
// dimensionality d under the given fast-math setting, on this machine
// (the vector tier depends on CPU features).
func KernelTier(d int, fastMath bool) string {
	if fastMath {
		return TierFast
	}
	if kernelHasAVX2 && d >= kernelVecMinDim {
		return TierVector
	}
	switch d {
	case 4, 8, 14, 16:
		return TierSpecialized
	}
	return TierGeneric
}

// noopPhase is the shared phase-end func used when no Probe is installed, so
// the hooks cost a nil check and no allocation on the hot path.
var noopPhase = func() {}

// startPhase begins a named phase on p, nil-safely.
func startPhase(p Probe, name string) func() {
	if p == nil {
		return noopPhase
	}
	return p.Phase(name)
}

// startPhaseTier begins a named phase carrying a tier attribute when the
// probe understands tiers, degrading to a plain phase otherwise.
func startPhaseTier(p Probe, name, tier string) func() {
	if p == nil {
		return noopPhase
	}
	if tp, ok := p.(TierProbe); ok {
		return tp.PhaseTier(name, tier)
	}
	return p.Phase(name)
}

// Options tunes a mechanism run. The zero value reproduces the paper's
// configuration.
type Options struct {
	// PostProcess selects the §6 repair strategy.
	PostProcess PostProcess
	// LambdaFactor scales the regularization weight: λ = LambdaFactor ×
	// sd(Lap(Δ/ε)). The paper observes 4 works well (§6.1); 0 means 4.
	LambdaFactor float64
	// MaxResamples caps the Lemma 5 retry loop (0 means 64).
	MaxResamples int
	// Parallelism bounds the worker pool that accumulates the objective
	// f̂_D(ω), the mechanism's only O(n·d²) step. 0 means
	// runtime.GOMAXPROCS(0); 1 forces the serial sweep. Parallelism only
	// changes the floating-point summation tree, never the privacy
	// calibration: noise is drawn after accumulation, from the same stream.
	Parallelism int
	// Governor, when non-nil, arbitrates the resolved worker count against
	// other runs in flight in the same process (a serving layer's global
	// parallelism cap). The run requests one worker per planned shard and
	// uses only what the governor grants; the shards stay the same.
	Governor Governor
	// Probe, when non-nil, receives phase boundaries (kernel, solve, noise)
	// so a serving layer can attribute per-request time without core owning
	// a clock. Nil means no instrumentation and no overhead beyond a nil
	// check.
	Probe Probe
	// FastMath selects the relaxed fast-math accumulation tier
	// (kernel_fast.go): results within the analytic lane/FMA error bound of
	// the exact fold, not bit-identical to it. The zero value keeps the
	// reproducible tier, so the paper configuration stays the default; the
	// public surface exposes this as WithReproducible(!FastMath). Privacy
	// calibration is indifferent to the tier — noise is drawn after
	// accumulation either way.
	FastMath bool
}

func (o Options) withDefaults() Options {
	if o.LambdaFactor == 0 {
		o.LambdaFactor = 4
	}
	if o.MaxResamples == 0 {
		o.MaxResamples = 64
	}
	return o
}

// Validate rejects option values no run accepts. Callers that fold before
// releasing check it first, so a bad request never pays for the fold.
func (o Options) Validate() error {
	if o.LambdaFactor < 0 {
		return fmt.Errorf("core: negative LambdaFactor %v", o.LambdaFactor)
	}
	if o.MaxResamples < 0 {
		return fmt.Errorf("core: negative MaxResamples %d", o.MaxResamples)
	}
	if o.Parallelism < 0 {
		return fmt.Errorf("core: negative Parallelism %d", o.Parallelism)
	}
	if o.PostProcess < PostProcessRegularizeAndTrim || o.PostProcess > PostProcessNone {
		return fmt.Errorf("core: unknown PostProcess %d", int(o.PostProcess))
	}
	return nil
}
