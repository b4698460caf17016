package funcmech

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"funcmech/internal/core"
	"funcmech/internal/dataset"
)

// taskFold is one per-record coefficient fold the accumulator maintains —
// one per fold-defining task spec in the registry (core.FoldSpecs). Tasks
// that share per-record contributions share a fold: ridge refits from the
// linear fold because its penalty is data-independent.
type taskFold struct {
	key  string          // the fold's registry name
	rule core.TargetRule // how the raw target becomes this fold's label
	acc  *core.Accumulator

	// err, once set, poisons the fold: a record arrived whose label could
	// not be derived under the fold's target rule (or a restored snapshot
	// predates the task). Other folds continue; refits for this fold fail
	// with the error.
	err error
}

// Accumulator folds raw records into the polynomial coefficients of the
// regression objectives as they arrive, so a model can later be fitted
// without ever materializing the records: the functional mechanism's fit
// step needs only these sums (paper Algorithm 1), and maintaining them is a
// streaming monoid fold. One accumulator maintains a fold per registered
// task family (linear — shared by ridge — logistic, median, …), so every
// registered task can be refitted over the same ingested records.
//
// Records are validated against the schema and clamped to its public bounds
// exactly as the one-shot fit paths do, so a fit from an accumulator is
// bit-identical to the corresponding one-shot fit over the same records in
// the same order (at a fixed seed; see LinearRegressionFromAccumulator).
//
// The accumulated coefficients are raw sums over records with no noise
// added: an Accumulator (and anything serialized from it via Save) is as
// sensitive as the records themselves and must stay in the same trust
// domain. Privacy is only guaranteed for the weights released by the
// ...FromAccumulator fit functions.
//
// An Accumulator is not safe for concurrent use; guard it with a mutex or
// use one per goroutine and Merge (see internal/stream for the sharded
// serving-layer discipline).
type Accumulator struct {
	schema    Schema
	intercept bool
	threshold *float64

	nz    *dataset.Normalizer // over the augmented schema
	d     int                 // augmented dimensionality
	n     int                 // records folded
	folds []*taskFold         // registry fold order (sorted by key)
}

// NewAccumulator returns an empty accumulator for the schema, with one fold
// per registered task family. Of the fit options only WithIntercept,
// WithBinarizeThreshold and WithReproducible apply — they shape the
// per-record fold, so they are fixed for the accumulator's lifetime and must
// not be passed again at fit time. Without a threshold, boolean-target folds
// are maintained only while every target is exactly 0 or 1. Under
// WithReproducible(false) batch folds run on the fast-math tier, so refits
// agree with the reproducible fold only to the analytic error bound, not
// bitwise.
func NewAccumulator(s Schema, opts ...Option) (*Accumulator, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return newAccumulator(s, buildConfig(opts), ""), nil
}

// newAccumulator builds an empty accumulator for a validated schema,
// maintaining only the fold named by only (every registered fold when only
// is empty).
func newAccumulator(s Schema, cfg config, only string) *Accumulator {
	inner := s.internal()
	if cfg.intercept {
		inner.Features = append(inner.Features, dataset.Attribute{Name: interceptName, Min: 0, Max: 1})
	}
	d := inner.D()
	specs := core.FoldSpecs()
	folds := make([]*taskFold, 0, len(specs))
	for _, spec := range specs {
		if only != "" && spec.Name != only {
			continue
		}
		acc := core.NewAccumulator(spec.Task, d)
		acc.SetFastMath(cfg.opts.FastMath)
		folds = append(folds, &taskFold{key: spec.Name, rule: spec.Target, acc: acc})
	}
	return &Accumulator{
		schema:    s,
		intercept: cfg.intercept,
		threshold: cfg.threshold,
		nz:        dataset.NewNormalizer(inner),
		d:         d,
		folds:     folds,
	}
}

// fold returns the fold registered under key, or nil.
func (a *Accumulator) fold(key string) *taskFold {
	for _, f := range a.folds {
		if f.key == key {
			return f
		}
	}
	return nil
}

// Reproducible reports whether the accumulator folds on the reproducible
// tier (the default) rather than the fast-math tier.
func (a *Accumulator) Reproducible() bool { return !a.folds[0].acc.FastMath() }

// nonBooleanTarget is the error that poisons a boolean fold: the record's
// target is not 0/1 and no binarize threshold derives one.
func nonBooleanTarget(f *taskFold, record int, target float64) error {
	return fmt.Errorf("funcmech: record %d target %v is not boolean and no WithBinarizeThreshold was set; %s fits are unavailable", record, target, f.key)
}

// Add folds one raw record into every fold's coefficients. Features are
// clamped to the schema's public bounds and normalized exactly as the
// one-shot fit paths normalize them; normalized-target folds clamp the
// target into its domain, boolean-target folds binarize it with the
// accumulator's threshold when one was configured. NaN values are rejected
// (they would poison the sums irreversibly); infinities clamp to the domain
// edge like any other out-of-domain value.
func (a *Accumulator) Add(features []float64, target float64) error {
	if len(features) != len(a.schema.Features) {
		return fmt.Errorf("funcmech: record has %d features, schema has %d", len(features), len(a.schema.Features))
	}
	for j, v := range features {
		if math.IsNaN(v) {
			return fmt.Errorf("funcmech: feature %q is NaN", a.schema.Features[j].Name)
		}
	}
	if math.IsNaN(target) {
		return fmt.Errorf("funcmech: target %q is NaN", a.schema.Target.Name)
	}

	// Resolve boolean labels before touching any state, so a record is
	// folded into every objective or poisons before folding into any.
	boolY := target
	if a.threshold != nil {
		boolY = 0
		if target > *a.threshold {
			boolY = 1
		}
	} else if target != 0 && target != 1 {
		for _, f := range a.folds {
			if f.rule == core.TargetBoolean && f.err == nil {
				f.err = nonBooleanTarget(f, a.n, target)
			}
		}
	}

	if a.intercept {
		features = augmentRow(features)
	}
	x := a.nz.NormalizeRow(features)
	yl := a.nz.NormalizeLabel(target)
	for _, f := range a.folds {
		switch f.rule {
		case core.TargetBoolean:
			if f.err == nil {
				f.acc.AddRecord(x, boolY)
			}
		default:
			f.acc.AddRecord(x, yl)
		}
	}
	a.n++
	return nil
}

// flatScratch is the reusable workspace of one AddFlat call: the normalized
// flat feature block, the shared normalized-label column, one boolean-label
// column per boolean fold (with its poisoning cut), and one augmented-row
// buffer. Pooling it makes batch ingestion allocation-free per record (and,
// once the pool is warm, per batch).
type flatScratch struct {
	xs   []float64
	yl   []float64
	yg   []float64 // nb stacked columns of k labels
	row  []float64
	cuts []int
	errs []error
}

var flatScratchPool = sync.Pool{New: func() any { return new(flatScratch) }}

func (s *flatScratch) ensure(xs, k, nb, row int) {
	if cap(s.xs) < xs {
		s.xs = make([]float64, xs)
	}
	s.xs = s.xs[:xs]
	if cap(s.yl) < k {
		s.yl = make([]float64, k)
	}
	s.yl = s.yl[:k]
	if cap(s.yg) < nb*k {
		s.yg = make([]float64, nb*k)
	}
	s.yg = s.yg[:nb*k]
	if cap(s.row) < row {
		s.row = make([]float64, row)
	}
	s.row = s.row[:row]
	if cap(s.cuts) < nb {
		s.cuts = make([]int, nb)
		s.errs = make([]error, nb)
	}
	s.cuts = s.cuts[:nb]
	s.errs = s.errs[:nb]
	for i := range s.errs {
		s.errs[i] = nil
	}
}

// AddFlat folds a batch of records given as flat row-major storage — each
// record is its feature vector in schema order with the target appended, so
// the row width is NumFeatures()+1 — and returns how many records were
// folded. Unlike Add, the batch is all-or-nothing: every record is validated
// (width by construction, NaN anywhere) before any is folded, so an error
// leaves the accumulator untouched.
//
// The fold is bit-identical to calling Add on each record in order: records
// are clamped and normalized by the same per-record code, and the batch then
// flows through the blocked objective kernel, which preserves per-coefficient
// record order exactly. Scratch space is pooled, so steady-state batch
// ingestion performs no per-record allocations.
//
//fm:noalloc
func (a *Accumulator) AddFlat(flat []float64) (int, error) {
	w := len(a.schema.Features) + 1
	if len(flat)%w != 0 {
		return 0, fmt.Errorf("funcmech: flat batch of %d values is not a multiple of %d (features + target)", len(flat), w)
	}
	k := len(flat) / w
	if k == 0 {
		return 0, nil
	}
	if err := a.checkRows(flat, w, flat[w-1:], w, k, 0); err != nil {
		return 0, err
	}
	a.foldRows(flat, w, flat[w-1:], w, k, a.n)
	return k, nil
}

// checkRows rejects the first NaN among k raw records in strided storage —
// record i's features are xs[i*xw : i*xw+NumFeatures()], its target
// ys[i*yw] — naming it by first+i.
//
//fm:noalloc
func (a *Accumulator) checkRows(xs []float64, xw int, ys []float64, yw int, k, first int) error {
	nf := len(a.schema.Features)
	for i := 0; i < k; i++ {
		for c, v := range xs[i*xw : i*xw+nf] {
			if math.IsNaN(v) {
				return fmt.Errorf("funcmech: record %d: feature %q is NaN", first+i, a.schema.Features[c].Name)
			}
		}
		if math.IsNaN(ys[i*yw]) {
			return fmt.Errorf("funcmech: record %d: target %q is NaN", first+i, a.schema.Target.Name)
		}
	}
	return nil
}

// foldRows folds k NaN-free raw records, laid out as for checkRows, into
// every fold — the body AddFlat's interleaved rows and SealDataset's
// separate feature and target columns share. first is the absolute index
// of record 0, named when a non-boolean target poisons a boolean fold.
//
//fm:noalloc
func (a *Accumulator) foldRows(xs []float64, xw int, ys []float64, yw int, k, first int) {
	nf := len(a.schema.Features)
	nb := 0
	for _, f := range a.folds {
		if f.rule == core.TargetBoolean {
			nb++
		}
	}
	sc := flatScratchPool.Get().(*flatScratch)
	defer flatScratchPool.Put(sc)
	sc.ensure(k*a.d, k, nb, a.d)

	// Resolve boolean labels up front: the fold below is grouped by
	// objective, and a non-boolean target without a threshold poisons a
	// boolean fold from that record on (exactly Add's semantics).
	bi := 0
	for _, f := range a.folds {
		if f.rule != core.TargetBoolean {
			continue
		}
		yg := sc.yg[bi*k : (bi+1)*k]
		cut := 0
		if f.err == nil {
			cut = k
			for i := 0; i < k; i++ {
				target := ys[i*yw]
				switch {
				case a.threshold != nil:
					yg[i] = 0
					if target > *a.threshold {
						yg[i] = 1
					}
				case target != 0 && target != 1:
					sc.errs[bi] = nonBooleanTarget(f, first+i, target)
					cut = i
				default:
					yg[i] = target
				}
				if sc.errs[bi] != nil {
					break
				}
			}
		}
		sc.cuts[bi] = cut
		bi++
	}
	for i := 0; i < k; i++ {
		features := xs[i*xw : i*xw+nf]
		if a.intercept {
			copy(sc.row, features)
			sc.row[nf] = 1
			features = sc.row
		}
		a.nz.NormalizeRowInto(sc.xs[i*a.d:(i+1)*a.d], features)
		sc.yl[i] = a.nz.NormalizeLabel(ys[i*yw])
	}

	bi = 0
	for _, f := range a.folds {
		if f.rule == core.TargetBoolean {
			if cut := sc.cuts[bi]; cut > 0 {
				f.acc.AddFlat(sc.xs[:cut*a.d], sc.yg[bi*k:bi*k+cut])
			}
			if f.err == nil {
				f.err = sc.errs[bi]
			}
			bi++
			continue
		}
		f.acc.AddFlat(sc.xs, sc.yl)
	}
	a.n += k
}

// Len returns the number of records accumulated.
func (a *Accumulator) Len() int { return a.n }

// NumFeatures returns the raw feature dimensionality (without the intercept
// column).
func (a *Accumulator) NumFeatures() int { return len(a.schema.Features) }

// Schema returns a copy of the accumulator's raw schema.
func (a *Accumulator) Schema() Schema {
	s := Schema{Target: a.schema.Target}
	s.Features = append(s.Features, a.schema.Features...)
	return s
}

// Intercept reports whether the accumulator folds an intercept column.
func (a *Accumulator) Intercept() bool { return a.intercept }

// BinarizeThreshold returns the configured binarize threshold, if any.
func (a *Accumulator) BinarizeThreshold() (float64, bool) {
	if a.threshold == nil {
		return 0, false
	}
	return *a.threshold, true
}

// Clone returns a deep copy sharing no mutable state with a.
func (a *Accumulator) Clone() *Accumulator {
	out := *a
	out.folds = make([]*taskFold, len(a.folds))
	for i, f := range a.folds {
		cp := *f
		cp.acc = f.acc.Clone()
		out.folds[i] = &cp
	}
	return &out
}

// Merge folds o's coefficients into a. Both accumulators must have been
// created with the same schema, intercept and threshold configuration —
// merging across configurations would mix incompatible geometries.
func (a *Accumulator) Merge(o *Accumulator) error {
	if err := a.compatible(o); err != nil {
		return err
	}
	for i, f := range a.folds {
		of := o.folds[i]
		f.acc.Merge(of.acc)
		if f.err == nil {
			f.err = of.err
		}
	}
	a.n += o.n
	return nil
}

func (a *Accumulator) compatible(o *Accumulator) error {
	if a.intercept != o.intercept {
		return errors.New("funcmech: merging accumulators with different intercept settings")
	}
	switch {
	case (a.threshold == nil) != (o.threshold == nil):
		return errors.New("funcmech: merging accumulators with different binarize thresholds")
	case a.threshold != nil && *a.threshold != *o.threshold:
		return fmt.Errorf("funcmech: merging accumulators with different binarize thresholds (%v vs %v)", *a.threshold, *o.threshold)
	}
	if !schemasEqual(a.schema, o.schema) {
		return errors.New("funcmech: merging accumulators with different schemas")
	}
	if len(a.folds) != len(o.folds) {
		return errors.New("funcmech: merging accumulators with different fold sets")
	}
	for i, f := range a.folds {
		if f.key != o.folds[i].key {
			return errors.New("funcmech: merging accumulators with different fold sets")
		}
	}
	return nil
}

func schemasEqual(a, b Schema) bool {
	if a.Target != b.Target || len(a.Features) != len(b.Features) {
		return false
	}
	for i := range a.Features {
		if a.Features[i] != b.Features[i] {
			return false
		}
	}
	return true
}

// fitCfg validates the option surface shared by the FromAccumulator entry
// points: options that shape the per-record fold are fixed at accumulator
// creation and must not reappear at fit time.
func fitCfg(a *Accumulator, opts []Option) (config, error) {
	cfg := buildConfig(opts)
	if cfg.intercept {
		return cfg, errors.New("funcmech: WithIntercept is fixed at accumulator creation")
	}
	if cfg.threshold != nil {
		return cfg, errors.New("funcmech: WithBinarizeThreshold is fixed at accumulator creation")
	}
	if a.Len() == 0 {
		return cfg, errors.New("funcmech: accumulator has no records")
	}
	return cfg, nil
}

// LinearRegressionFromAccumulator fits an ε-differentially private linear
// (or, WithRidge, penalized) regression from the accumulated coefficients,
// with no pass over the records: the release costs O(d²) regardless of how
// many records were ingested. Fresh Laplace noise calibrated to the same
// sensitivity Δ is drawn per call, so each release independently satisfies
// ε-differential privacy and repeated releases compose sequentially (use a
// Session to enforce the total).
//
// At a fixed seed the result is bit-identical to LinearRegression over the
// same records appended in the same order with WithParallelism(1): the
// accumulator performs the identical serial fold the one-shot path performs.
// WithParallelism and WithGovernor are accepted but have no effect here —
// there is no record sweep to parallelize.
func LinearRegressionFromAccumulator(a *Accumulator, epsilon float64, opts ...Option) (*LinearModel, *Report, error) {
	m, rep, err := FitTaskFromAccumulator(a, core.TaskNameLinear, epsilon, opts...)
	if err != nil {
		return nil, nil, err
	}
	return &LinearModel{
		weights: m.weights, nz: m.nz, schema: m.schema, intercept: m.intercept,
	}, rep, nil
}

// LogisticRegressionFromAccumulator fits an ε-differentially private
// logistic regression from the accumulated coefficients; see
// LinearRegressionFromAccumulator for the cost and privacy contract. It
// fails if any ingested record's target was not boolean and the accumulator
// had no binarize threshold.
func LogisticRegressionFromAccumulator(a *Accumulator, epsilon float64, opts ...Option) (*LogisticModel, *Report, error) {
	m, rep, err := FitTaskFromAccumulator(a, core.TaskNameLogistic, epsilon, opts...)
	if err != nil {
		return nil, nil, err
	}
	return &LogisticModel{
		weights: m.weights, nz: m.nz, schema: m.schema,
		threshold: m.threshold, intercept: m.intercept,
	}, rep, nil
}
