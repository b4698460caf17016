package serve

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"funcmech"
	"funcmech/internal/census"
	"funcmech/internal/dataset"
)

// Registry holds the datasets the service can fit against, keyed by name.
// Registration happens once (at startup or via POST /v1/datasets); after
// that the *funcmech.Dataset is shared read-only across every request, so
// lookups take only a brief RLock.
//
// Each dataset also carries its sealed accumulators: the records folded
// once per fold shape (sealKey) by funcmech.SealDataset, from which every
// later /v1/fit releases in O(d²). They hold raw sums, as sensitive as the
// dataset itself, so they stay in memory — never serialized, never
// returned by any endpoint.
type Registry struct {
	mu    sync.RWMutex
	sets  map[string]*registered
	seals atomic.Uint64 // folds completed, behind fm_dataset_seals_total
}

// sealsPerDataset bounds each dataset's sealed accumulators; the least
// recently used is evicted beyond it. A fold shape is intercept × threshold
// × tier × shard count, and a workload rarely mixes more than a few.
const sealsPerDataset = 4

// registered is one dataset and its sealed accumulators.
type registered struct {
	ds    *funcmech.Dataset
	mu    sync.Mutex
	seals []*sealed // most recently used first, at most sealsPerDataset
}

// sealKey is everything that shapes a sealed fold: the fold-defining fit
// options plus the resolved shard count of the reduction plan.
type sealKey struct {
	intercept bool
	binarize  bool
	threshold float64
	fastMath  bool
	shards    int
}

// options returns the SealDataset options that fold under k.
func (k sealKey) options() []funcmech.Option {
	opts := []funcmech.Option{funcmech.WithParallelism(k.shards), funcmech.WithReproducible(!k.fastMath)}
	if k.intercept {
		opts = append(opts, funcmech.WithIntercept())
	}
	if k.binarize {
		opts = append(opts, funcmech.WithBinarizeThreshold(k.threshold))
	}
	return opts
}

// sealed is one cache slot. done closes once acc/err are set, so requests
// arriving while the first fold runs wait for it instead of folding again.
type sealed struct {
	key  sealKey
	done chan struct{}
	acc  *funcmech.Accumulator
	err  error
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{sets: make(map[string]*registered)}
}

// Register adds ds under name. Names are immutable once taken: re-registering
// is an error, because fits in flight hold references to the original.
func (r *Registry) Register(name string, ds *funcmech.Dataset) error {
	if name == "" {
		return fmt.Errorf("serve: empty dataset name")
	}
	if ds == nil || ds.Len() == 0 {
		return fmt.Errorf("serve: dataset %q is empty", name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.sets[name]; ok {
		return fmt.Errorf("serve: dataset %q already registered", name)
	}
	r.sets[name] = &registered{ds: ds}
	return nil
}

// Lookup returns the dataset registered under name, or false.
func (r *Registry) Lookup(name string) (*funcmech.Dataset, bool) {
	e, ok := r.entry(name)
	if !ok {
		return nil, false
	}
	return e.ds, true
}

func (r *Registry) entry(name string) (*registered, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.sets[name]
	return e, ok
}

// cached reports whether a fold under k has completed successfully.
func (e *registered) cached(k sealKey) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, s := range e.seals {
		if s.key == k {
			select {
			case <-s.done:
				return s.err == nil
			default:
			}
		}
	}
	return false
}

// accumulator returns the dataset sealed under k, running fold on a miss.
// Concurrent callers with one key share one fold. A failed fold is not
// cached: its waiters get the error, and the next request folds again.
func (r *Registry) accumulator(e *registered, k sealKey, fold func(*funcmech.Dataset) (*funcmech.Accumulator, error)) (*funcmech.Accumulator, error) {
	e.mu.Lock()
	for i, s := range e.seals {
		if s.key == k {
			copy(e.seals[1:i+1], e.seals[:i])
			e.seals[0] = s
			e.mu.Unlock()
			<-s.done
			return s.acc, s.err
		}
	}
	s := &sealed{key: k, done: make(chan struct{})}
	e.seals = append([]*sealed{s}, e.seals...)
	if len(e.seals) > sealsPerDataset {
		e.seals = e.seals[:sealsPerDataset]
	}
	e.mu.Unlock()

	s.acc, s.err = fold(e.ds)
	if s.err != nil {
		e.mu.Lock()
		for i, c := range e.seals {
			if c == s {
				e.seals = append(e.seals[:i], e.seals[i+1:]...)
				break
			}
		}
		e.mu.Unlock()
	} else {
		r.seals.Add(1)
	}
	close(s.done)
	return s.acc, s.err
}

// Names returns the registered dataset names, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.sets))
	for name := range r.sets {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// GenerateCensus builds a synthetic census dataset (the repository's stand-in
// for the paper's IPUMS extracts) as a public *funcmech.Dataset. profile is
// "us" or "brazil"; n ≤ 0 means the profile's full cardinality.
func GenerateCensus(profile string, n int, seed int64) (*funcmech.Dataset, error) {
	var p census.Profile
	switch profile {
	case "us":
		p = census.US()
	case "brazil":
		p = census.Brazil()
	default:
		return nil, fmt.Errorf("serve: unknown census profile %q (want us or brazil)", profile)
	}
	if n <= 0 || n > p.Records {
		n = p.Records
	}
	return fromInternal(census.GenerateN(p, n, seed)), nil
}

// fromInternal copies an internal dataset into the public wrapper the
// funcmech entry points accept.
func fromInternal(inner *dataset.Dataset) *funcmech.Dataset {
	s := funcmech.Schema{
		Target: funcmech.Attribute{
			Name: inner.Schema.Target.Name,
			Min:  inner.Schema.Target.Min,
			Max:  inner.Schema.Target.Max,
		},
	}
	for _, a := range inner.Schema.Features {
		s.Features = append(s.Features, funcmech.Attribute{Name: a.Name, Min: a.Min, Max: a.Max})
	}
	out := funcmech.NewDataset(s)
	for i := 0; i < inner.N(); i++ {
		out.Append(inner.Row(i), inner.Label(i))
	}
	return out
}
