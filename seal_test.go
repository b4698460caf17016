package funcmech_test

import (
	"math"
	"strings"
	"sync"
	"testing"

	"funcmech"
)

// fixedGrant is a governor that grants at most g workers per Acquire,
// standing in for a server under load.
type fixedGrant int

func (g fixedGrant) Acquire(want int) (int, func()) { return min(want, int(g)), func() {} }

// sealCase is one registered task with the options its fit needs: boolean
// tasks binarize the income target, ridge takes a weight.
type sealCase struct {
	task      string
	shape     []funcmech.Option // fold-shaping options (seal and FitTask)
	release   []funcmech.Option // release-only options (both paths)
	threshold bool
}

func sealCases() []sealCase {
	var out []sealCase
	for _, info := range funcmech.Tasks() {
		c := sealCase{task: info.Name, shape: []funcmech.Option{funcmech.WithIntercept()}}
		if info.Boolean {
			c.shape = append(c.shape, funcmech.WithBinarizeThreshold(90000))
			c.threshold = true
		}
		if info.NeedsRidgeWeight {
			c.release = append(c.release, funcmech.WithRidge(0.05))
		}
		out = append(out, c)
	}
	return out
}

func withOpts(base []funcmech.Option, more ...funcmech.Option) []funcmech.Option {
	return append(append([]funcmech.Option(nil), base...), more...)
}

// TestSealDatasetBitIdenticalToFitTask: a release from a sealed dataset is
// bit-identical to FitTask at the same parallelism, for every registered
// task and for unsharded, evenly and unevenly sharded plans.
func TestSealDatasetBitIdenticalToFitTask(t *testing.T) {
	ds := incomeDataset(3*2048+517, 21) // shards at parallelism 2 and 3
	for _, par := range []int{1, 2, 3} {
		accs := map[bool]*funcmech.Accumulator{}
		for _, c := range sealCases() {
			acc := accs[c.threshold]
			if acc == nil {
				var err error
				acc, err = funcmech.SealDataset(ds, withOpts(c.shape, funcmech.WithParallelism(par))...)
				if err != nil {
					t.Fatal(err)
				}
				accs[c.threshold] = acc
			}
			if acc.Len() != ds.Len() {
				t.Fatalf("sealed %d records, dataset has %d", acc.Len(), ds.Len())
			}
			want, _, err := funcmech.FitTask(ds, c.task, 0.7,
				withOpts(c.shape, withOpts(c.release, funcmech.WithSeed(5), funcmech.WithParallelism(par))...)...)
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := funcmech.FitTaskFromAccumulator(acc, c.task, 0.7, withOpts(c.release, funcmech.WithSeed(5))...)
			if err != nil {
				t.Fatal(err)
			}
			sameWeights(t, c.task+" sealed vs FitTask", got.Weights(), want.Weights())
		}
	}
}

// TestSealDatasetGrantIndependent: the governor's grant sizes the worker
// pool, never the shard plan, so seals under grants 1..p fold the same
// bits.
func TestSealDatasetGrantIndependent(t *testing.T) {
	ds := incomeDataset(4*2048+33, 8)
	const par = 4
	fit := func(acc *funcmech.Accumulator) []float64 {
		m, _, err := funcmech.FitTaskFromAccumulator(acc, "linear", 0.9, funcmech.WithSeed(11))
		if err != nil {
			t.Fatal(err)
		}
		return m.Weights()
	}
	var ref []float64
	for g := 1; g <= par; g++ {
		acc, err := funcmech.SealDataset(ds, funcmech.WithIntercept(),
			funcmech.WithParallelism(par), funcmech.WithGovernor(fixedGrant(g)))
		if err != nil {
			t.Fatal(err)
		}
		if w := fit(acc); ref == nil {
			ref = w
		} else {
			sameWeights(t, "seal under a narrower grant", w, ref)
		}
	}
}

// TestSealDatasetFastTierWithinBound: WithReproducible(false) seals on the
// fast-math tier; its releases agree with the reproducible seal's within
// the analytic bound, and match FitTask's fast tier at the same plan.
func TestSealDatasetFastTierWithinBound(t *testing.T) {
	ds := incomeDataset(2*2048+100, 4)
	seal := func(repro bool) *funcmech.Accumulator {
		acc, err := funcmech.SealDataset(ds, funcmech.WithIntercept(), funcmech.WithBinarizeThreshold(90000),
			funcmech.WithParallelism(2), funcmech.WithReproducible(repro))
		if err != nil {
			t.Fatal(err)
		}
		return acc
	}
	exact, fast := seal(true), seal(false)
	if fast.Reproducible() {
		t.Fatal("fast-math seal reports the reproducible tier")
	}
	for _, task := range []string{"linear", "logistic"} {
		e, _, err := funcmech.FitTaskFromAccumulator(exact, task, 1, funcmech.WithSeed(3))
		if err != nil {
			t.Fatal(err)
		}
		f, _, err := funcmech.FitTaskFromAccumulator(fast, task, 1, funcmech.WithSeed(3))
		if err != nil {
			t.Fatal(err)
		}
		for i, w := range f.Weights() {
			if d := math.Abs(w - e.Weights()[i]); d > 1e-9*(1+math.Abs(e.Weights()[i])) {
				t.Fatalf("%s weight %d: fast %v vs exact %v", task, i, w, e.Weights()[i])
			}
		}
		opts := []funcmech.Option{funcmech.WithIntercept(), funcmech.WithSeed(3),
			funcmech.WithParallelism(2), funcmech.WithReproducible(false)}
		if task == "logistic" {
			opts = append(opts, funcmech.WithBinarizeThreshold(90000))
		}
		one, _, err := funcmech.FitTask(ds, task, 1, opts...)
		if err != nil {
			t.Fatal(err)
		}
		sameWeights(t, task+" fast seal vs fast FitTask", f.Weights(), one.Weights())
	}
}

// phaseCounter is a Probe recording how often each phase ran.
type phaseCounter struct {
	mu sync.Mutex
	n  map[string]int
}

func (p *phaseCounter) Phase(name string) func() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.n[name]++
	return func() {}
}

func TestSealDatasetReportsKernelPhase(t *testing.T) {
	p := &phaseCounter{n: map[string]int{}}
	if _, err := funcmech.SealDataset(incomeDataset(3*2048, 2), funcmech.WithParallelism(3), funcmech.WithProbe(p)); err != nil {
		t.Fatal(err)
	}
	if p.n["kernel"] != 1 || len(p.n) != 1 {
		t.Fatalf("phases reported = %v, want one kernel phase", p.n)
	}
}

// TestSealDatasetErrors: the seal refuses what FitTask refuses up front,
// names a NaN by its dataset index, and — like the stream fold — defers a
// non-boolean target to the logistic release, which fails as FitTask does.
func TestSealDatasetErrors(t *testing.T) {
	if _, err := funcmech.SealDataset(funcmech.NewDataset(incomeSchema())); err == nil {
		t.Fatal("sealed an empty dataset")
	}
	ds := incomeDataset(3*2048, 6)
	if _, err := funcmech.SealDataset(ds, funcmech.WithParallelism(-1)); err == nil {
		t.Fatal("sealed at negative parallelism")
	}

	acc, err := funcmech.SealDataset(ds, funcmech.WithParallelism(3))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := funcmech.FitTask(ds, "logistic", 1); err == nil {
		t.Fatal("FitTask fitted logistic on a non-boolean target")
	}
	if _, _, err := funcmech.FitTaskFromAccumulator(acc, "logistic", 1); err == nil || !strings.Contains(err.Error(), "record 0 ") {
		t.Fatalf("logistic from a poisoned seal: err = %v, want the first non-boolean record named", err)
	}

	nan := incomeDataset(3*2048, 6)
	nan.Append([]float64{30, math.NaN(), 40}, 1000)
	if _, err := funcmech.SealDataset(nan, funcmech.WithParallelism(3)); err == nil || !strings.Contains(err.Error(), "record 6144: feature \"education\" is NaN") {
		t.Fatalf("NaN seal: err = %v, want record 6144 named", err)
	}
}
