package funcmech

import (
	"fmt"

	"funcmech/internal/core"
	"funcmech/internal/dataset"
	"funcmech/internal/regression"
)

// LogisticModel predicts a boolean target from raw-unit features.
type LogisticModel struct {
	weights   []float64
	nz        *dataset.Normalizer
	schema    Schema
	threshold *float64
	intercept bool
}

// Weights returns the model parameters ω in normalized feature space. When
// the model was fitted WithIntercept, the last entry is the bias weight.
// The slice is a copy.
func (m *LogisticModel) Weights() []float64 {
	return append([]float64(nil), m.weights...)
}

// Probability returns P(target = 1 | features) for a raw feature vector.
func (m *LogisticModel) Probability(features []float64) float64 {
	if m.intercept {
		features = augmentRow(features)
	}
	x := m.nz.NormalizeRow(features)
	return (&regression.LogisticModel{Weights: m.weights}).Probability(x)
}

// Classify thresholds Probability at 1/2.
func (m *LogisticModel) Classify(features []float64) bool {
	return m.Probability(features) > 0.5
}

// MisclassificationRate returns the fraction of records in ds classified
// incorrectly. When the model was fitted with WithBinarizeThreshold, raw
// targets are binarized with the same threshold first.
func (m *LogisticModel) MisclassificationRate(ds *Dataset) (float64, error) {
	labels, err := m.booleanLabels(ds)
	if err != nil {
		return 0, err
	}
	wrong := 0
	for i := 0; i < ds.Len(); i++ {
		pred := 0.0
		if m.Classify(ds.inner.Row(i)) {
			pred = 1
		}
		if pred != labels[i] {
			wrong++
		}
	}
	return float64(wrong) / float64(ds.Len()), nil
}

func (m *LogisticModel) booleanLabels(ds *Dataset) ([]float64, error) {
	if ds.Len() == 0 {
		return nil, fmt.Errorf("funcmech: empty dataset")
	}
	out := make([]float64, ds.Len())
	for i := range out {
		y := ds.inner.Label(i)
		if m.threshold != nil {
			if y > *m.threshold {
				out[i] = 1
			}
			continue
		}
		if y != 0 && y != 1 {
			return nil, fmt.Errorf("funcmech: record %d target %v is not boolean; fit with WithBinarizeThreshold or supply 0/1 targets", i, y)
		}
		out[i] = y
	}
	return out, nil
}

// prepareLogistic binarizes (optionally), augments (optionally) and
// normalizes a copy of ds for the non-private LogisticRegressionExact
// baseline; the private fits fold the records in place instead.
func prepareLogistic(ds *Dataset, cfg config) (*dataset.Dataset, *dataset.Normalizer, error) {
	inner := ds.inner
	if cfg.threshold != nil {
		inner = inner.BinarizeTarget(*cfg.threshold)
	}
	if cfg.intercept {
		inner = withInterceptColumn(inner)
	}
	nz := dataset.NewNormalizer(inner.Schema)
	norm, err := nz.NormalizeForLogistic(inner)
	if err != nil {
		return nil, nil, err
	}
	return norm, nz, nil
}

// LogisticRegression fits an ε-differentially private logistic regression
// with the functional mechanism and the order-2 Taylor approximation of the
// paper's Algorithm 2 (§5). The target must be 0/1, or supply
// WithBinarizeThreshold to derive it.
func LogisticRegression(ds *Dataset, epsilon float64, opts ...Option) (*LogisticModel, *Report, error) {
	m, rep, err := FitTask(ds, core.TaskNameLogistic, epsilon, opts...)
	if err != nil {
		return nil, nil, err
	}
	return &LogisticModel{
		weights: m.weights, nz: m.nz, schema: m.schema,
		threshold: m.threshold, intercept: m.intercept,
	}, rep, nil
}

// LogisticRegressionExact fits the non-private maximum-likelihood model on
// the same normalized representation — the NoPrivacy baseline.
func LogisticRegressionExact(ds *Dataset, opts ...Option) (*LogisticModel, error) {
	cfg := buildConfig(opts)
	norm, nz, err := prepareLogistic(ds, cfg)
	if err != nil {
		return nil, err
	}
	m, err := regression.FitLogistic(norm, regression.LogisticOptions{})
	if err != nil {
		return nil, err
	}
	return &LogisticModel{
		weights: m.Weights, nz: nz, schema: ds.Schema(),
		threshold: cfg.threshold, intercept: cfg.intercept,
	}, nil
}
