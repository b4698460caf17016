package funcmech_test

import (
	"math"
	"runtime"
	"strings"
	"testing"

	"funcmech"
)

// TestFitTaskGrantIndependent: FitTask folds on the fixed reduction plan, so
// under a governor granting 1..p workers every registered task fits the
// bits of the ungoverned fit at parallelism p.
func TestFitTaskGrantIndependent(t *testing.T) {
	ds := incomeDataset(4*2048+33, 8) // four shards at parallelism 4
	const par = 4
	for _, c := range sealCases() {
		opts := withOpts(c.shape, withOpts(c.release, funcmech.WithSeed(11), funcmech.WithParallelism(par))...)
		want, _, err := funcmech.FitTask(ds, c.task, 0.9, opts...)
		if err != nil {
			t.Fatal(err)
		}
		for g := 1; g <= par; g++ {
			got, _, err := funcmech.FitTask(ds, c.task, 0.9, withOpts(opts, funcmech.WithGovernor(fixedGrant(g)))...)
			if err != nil {
				t.Fatal(err)
			}
			sameWeights(t, c.task+" under a narrower grant", got.Weights(), want.Weights())
		}
	}
}

// TestFitTaskAllocatesLessThanDataset: a one-shot fit streams the records
// through pooled scratch, so it allocates less than one copy of the
// dataset's features.
func TestFitTaskAllocatesLessThanDataset(t *testing.T) {
	ds := incomeDataset(50000, 12)
	budget := uint64(ds.Len() * ds.NumFeatures() * 8)
	for _, c := range sealCases() {
		opts := withOpts(c.shape, withOpts(c.release, funcmech.WithSeed(3))...)
		if _, _, err := funcmech.FitTask(ds, c.task, 1, opts...); err != nil { // warm the scratch pool
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, _, err := funcmech.FitTask(ds, c.task, 1, opts...); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got >= budget {
			t.Errorf("%s: one fit allocated %d bytes, want < %d (one copy of the features)", c.task, got, budget)
		}
	}
}

// TestFitTaskFailsFast: requests the release would refuse are refused
// before the fold, so no kernel phase ever starts for them.
func TestFitTaskFailsFast(t *testing.T) {
	ds := incomeDataset(3*2048, 4)
	cases := []struct {
		name, task string
		eps        float64
		opts       []funcmech.Option
	}{
		{"zero epsilon", "linear", 0, nil},
		{"negative epsilon", "median", -1, nil},
		{"unknown post-process", "linear", 1, []funcmech.Option{funcmech.WithPostProcess(funcmech.PostProcess(99))}},
		{"negative lambda factor", "linear", 1, []funcmech.Option{funcmech.WithLambdaFactor(-1)}},
		{"negative parallelism", "median", 1, []funcmech.Option{funcmech.WithParallelism(-1)}},
		{"ridge on logistic", "logistic", 1, []funcmech.Option{funcmech.WithRidge(0.1), funcmech.WithBinarizeThreshold(90000)}},
		{"ridge without weight", "ridge", 1, nil},
		{"negative ridge", "linear", 1, []funcmech.Option{funcmech.WithRidge(-0.1)}},
		{"threshold on linear", "linear", 1, []funcmech.Option{funcmech.WithBinarizeThreshold(90000)}},
		{"threshold on median", "median", 1, []funcmech.Option{funcmech.WithBinarizeThreshold(90000)}},
	}
	for _, c := range cases {
		p := &phaseCounter{n: map[string]int{}}
		if _, _, err := funcmech.FitTask(ds, c.task, c.eps, withOpts(c.opts, funcmech.WithProbe(p))...); err == nil {
			t.Errorf("%s: fit succeeded", c.name)
		}
		if len(p.n) != 0 {
			t.Errorf("%s: phases %v ran before the refusal, want none", c.name, p.n)
		}
	}
}

// TestFitTaskRejectsBadRecordsBeforeNoise: a NaN is named by its record
// index from the fold, and a non-boolean logistic target names its record
// and the option that fixes it — both before any noise is drawn.
func TestFitTaskRejectsBadRecordsBeforeNoise(t *testing.T) {
	nan := incomeDataset(3*2048, 6)
	nan.Append([]float64{30, math.NaN(), 40}, 1000)
	p := &phaseCounter{n: map[string]int{}}
	_, _, err := funcmech.FitTask(nan, "linear", 1, funcmech.WithParallelism(3), funcmech.WithProbe(p))
	if err == nil || !strings.Contains(err.Error(), `record 6144: feature "education" is NaN`) {
		t.Fatalf("NaN fit: err = %v, want record 6144 named", err)
	}
	if p.n["noise"] != 0 {
		t.Fatal("NaN fit drew noise before failing")
	}

	p = &phaseCounter{n: map[string]int{}}
	_, _, err = funcmech.FitTask(incomeDataset(500, 6), "logistic", 1, funcmech.WithProbe(p))
	if err == nil {
		t.Fatal("logistic fitted a non-boolean target without a threshold")
	}
	if msg := err.Error(); !strings.Contains(msg, "record 0 ") || !strings.Contains(msg, "WithBinarizeThreshold") || strings.Contains(msg, "accumulator") {
		t.Fatalf("non-boolean logistic fit: err = %q, want record 0 named and WithBinarizeThreshold suggested", msg)
	}
	if p.n["noise"] != 0 {
		t.Fatal("non-boolean logistic fit drew noise before failing")
	}
}
