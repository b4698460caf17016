package funcmech

import (
	"errors"
	"fmt"
	"strings"

	"funcmech/internal/core"
	"funcmech/internal/dataset"
	"funcmech/internal/regression"
)

// This file is the task-generic fit surface: every regression family the
// mechanism can release is described by a core.TaskSpec in the task
// registry, and FitTask / FitTaskFromAccumulator resolve a task by name and
// release it from the spec's fold — the coefficient sums of its degree-2
// objective, which FitTask seals from the dataset on the spot and a stream
// or a SealDataset caller has already folded — by perturbing and solving.
// The named entry points (LinearRegression, LogisticRegression, …) are thin
// views over this surface, so registering a new task makes it servable
// everywhere without touching any of the layers above.

// ErrUnknownTask is returned when a task name does not resolve in the
// registry. Callers can match it with errors.Is; the message enumerates the
// registered names.
var ErrUnknownTask = errors.New("funcmech: unknown task")

// unknownTask wraps ErrUnknownTask with the offending name and the
// registered alternatives.
func unknownTask(name string) error {
	return fmt.Errorf("%w %q (registered tasks: %s)", ErrUnknownTask, name, strings.Join(TaskNames(), ", "))
}

// TaskNames returns the registered task names, sorted.
func TaskNames() []string { return core.TaskNames() }

// TaskInfo describes one registered task — the registry's public, read-only
// view.
type TaskInfo struct {
	// Name resolves the task in FitTask and the serving APIs.
	Name string
	// Degree is the polynomial degree of the released objective.
	Degree int
	// Sensitivity is the documented closed form of the task's Δ.
	Sensitivity string
	// TargetRule says how the raw target becomes the training label.
	TargetRule string
	// Boolean reports whether the task trains on a boolean label (so
	// WithBinarizeThreshold applies).
	Boolean bool
	// AcceptsRidge / NeedsRidgeWeight describe the WithRidge surface.
	AcceptsRidge     bool
	NeedsRidgeWeight bool
}

func infoFromSpec(s core.TaskSpec) TaskInfo {
	return TaskInfo{
		Name:             s.Name,
		Degree:           s.Degree,
		Sensitivity:      s.SensitivityFormula,
		TargetRule:       s.Target.String(),
		Boolean:          s.Target == core.TargetBoolean,
		AcceptsRidge:     s.AcceptsRidge,
		NeedsRidgeWeight: s.NeedsRidgeWeight,
	}
}

// Tasks returns every registered task in sorted name order.
func Tasks() []TaskInfo {
	specs := core.TaskSpecs()
	infos := make([]TaskInfo, len(specs))
	for i, s := range specs {
		infos[i] = infoFromSpec(s)
	}
	return infos
}

// LookupTask returns the registered task named name.
func LookupTask(name string) (TaskInfo, bool) {
	s, ok := core.LookupTask(name)
	if !ok {
		return TaskInfo{}, false
	}
	return infoFromSpec(s), true
}

// taskFor validates the fit options against the spec and instantiates the
// task for one release.
func taskFor(spec core.TaskSpec, cfg config) (core.BlockTask, error) {
	switch {
	case cfg.ridge != 0 && !spec.AcceptsRidge:
		return nil, errors.New("funcmech: WithRidge applies only to linear regression")
	case cfg.ridge < 0:
		return nil, fmt.Errorf("funcmech: negative ridge weight %v", cfg.ridge)
	case cfg.ridge == 0 && spec.NeedsRidgeWeight:
		return nil, fmt.Errorf("funcmech: task %q requires a positive WithRidge weight", spec.Name)
	}
	task, err := spec.New(core.TaskParams{RidgeWeight: cfg.ridge})
	if err != nil {
		return nil, fmt.Errorf("funcmech: %w", err)
	}
	return task, nil
}

// TaskModel is the model a task-generic fit releases: the private weights
// plus the interpretation rules (normalization, target rule, threshold) the
// task spec prescribes, so one type serves every registered task.
type TaskModel struct {
	task      TaskInfo
	weights   []float64
	nz        *dataset.Normalizer
	schema    Schema
	threshold *float64
	intercept bool
}

// Task returns the registered task this model was fitted for.
func (m *TaskModel) Task() TaskInfo { return m.task }

// Weights returns the model parameters ω in normalized feature space. When
// the model was fitted WithIntercept, the last entry is the bias weight.
// The slice is a copy.
func (m *TaskModel) Weights() []float64 {
	return append([]float64(nil), m.weights...)
}

// Predict returns the model's estimate for a raw feature vector: the target
// in raw units for normalized-target tasks, P(target = 1) for boolean-target
// tasks.
func (m *TaskModel) Predict(features []float64) float64 {
	if m.intercept {
		features = augmentRow(features)
	}
	x := m.nz.NormalizeRow(features)
	if m.task.Boolean {
		return (&regression.LogisticModel{Weights: m.weights}).Probability(x)
	}
	return m.nz.DenormalizeLabel((&regression.LinearModel{Weights: m.weights}).Predict(x))
}

// Classify thresholds a boolean-target task's probability at 1/2.
func (m *TaskModel) Classify(features []float64) bool { return m.Predict(features) > 0.5 }

// MSE returns the mean squared prediction error over ds in raw target units
// (meaningful for normalized-target tasks).
func (m *TaskModel) MSE(ds *Dataset) float64 {
	n := ds.Len()
	if n == 0 {
		return 0
	}
	var s float64
	for i := 0; i < n; i++ {
		r := ds.inner.Label(i) - m.Predict(ds.inner.Row(i))
		s += r * r
	}
	return s / float64(n)
}

// MAE returns the mean absolute prediction error over ds in raw target
// units — the loss median regression optimizes.
func (m *TaskModel) MAE(ds *Dataset) float64 {
	n := ds.Len()
	if n == 0 {
		return 0
	}
	var s float64
	for i := 0; i < n; i++ {
		r := ds.inner.Label(i) - m.Predict(ds.inner.Row(i))
		if r < 0 {
			r = -r
		}
		s += r
	}
	return s / float64(n)
}

// MisclassificationRate returns the fraction of records in ds classified
// incorrectly (boolean-target tasks). Raw targets are binarized with the
// model's threshold when one was configured.
func (m *TaskModel) MisclassificationRate(ds *Dataset) (float64, error) {
	view := &LogisticModel{
		weights: m.weights, nz: m.nz, schema: m.schema,
		threshold: m.threshold, intercept: m.intercept,
	}
	return view.MisclassificationRate(ds)
}

// FitTask fits an ε-differentially private model for the named registered
// task over ds — the task-generic face of LinearRegression and friends, and
// the single entry point the serving layers resolve every request through.
// Unknown names wrap ErrUnknownTask.
//
// A one-shot fit is a fold followed by a release: after the options are
// checked, ds is sealed into the requested task's fold alone (the fold
// SealDataset would build for it, on the same reduction plan, with no copy
// of ds), and the fold is released exactly as FitTaskFromAccumulator
// releases it. The sums never leave this call.
func FitTask(ds *Dataset, task string, epsilon float64, opts ...Option) (*TaskModel, *Report, error) {
	spec, ok := core.LookupTask(task)
	if !ok {
		return nil, nil, unknownTask(task)
	}
	cfg := buildConfig(opts)
	ct, err := taskFor(spec, cfg)
	if err != nil {
		return nil, nil, err
	}
	// Everything the release would refuse is refused before the O(n·d²)
	// fold pays for it.
	if epsilon <= 0 {
		return nil, nil, fmt.Errorf("funcmech: non-positive privacy budget %v", epsilon)
	}
	if err := cfg.opts.Validate(); err != nil {
		return nil, nil, err
	}
	if cfg.threshold != nil && spec.Target != core.TargetBoolean {
		return nil, nil, errors.New("funcmech: WithBinarizeThreshold applies only to boolean-target tasks")
	}
	a, err := sealDataset(ds, cfg, spec.Fold)
	if err != nil {
		return nil, nil, err
	}
	return release(a, spec, ct, epsilon, cfg)
}

// FitTaskFromAccumulator fits the named task from streamed coefficients,
// with no pass over the records; see LinearRegressionFromAccumulator for
// the cost and privacy contract. The task's fold must be intact: a fold
// poisoned during ingestion (or absent from a restored legacy snapshot)
// fails with the poisoning error.
func FitTaskFromAccumulator(a *Accumulator, task string, epsilon float64, opts ...Option) (*TaskModel, *Report, error) {
	spec, ok := core.LookupTask(task)
	if !ok {
		return nil, nil, unknownTask(task)
	}
	cfg, err := fitCfg(a, opts)
	if err != nil {
		return nil, nil, err
	}
	ct, err := taskFor(spec, cfg)
	if err != nil {
		return nil, nil, err
	}
	return release(a, spec, ct, epsilon, cfg)
}

// release perturbs and solves the spec's fold of a — the step every fit
// shares — and wraps the weights in a model carrying a's geometry.
func release(a *Accumulator, spec core.TaskSpec, ct core.BlockTask, epsilon float64, cfg config) (*TaskModel, *Report, error) {
	f := a.fold(spec.Fold)
	if f == nil {
		return nil, nil, fmt.Errorf("funcmech: accumulator has no fold for task %q", spec.Name)
	}
	if f.err != nil {
		return nil, nil, f.err
	}
	res, err := core.RunFromQuadratic(ct, f.acc.QuadraticAs(ct), epsilon, cfg.rng, cfg.opts)
	if err != nil {
		return nil, nil, err
	}
	return &TaskModel{
		task: infoFromSpec(spec), weights: res.Weights, nz: a.nz, schema: a.Schema(),
		threshold: a.threshold, intercept: a.intercept,
	}, reportFrom(res), nil
}
