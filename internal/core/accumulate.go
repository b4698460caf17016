package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"funcmech/internal/dataset"
	"funcmech/internal/poly"
)

// This file is the scalability half of the mechanism: building f̂_D(ω)
// (Algorithm 1's objective, the only step that touches every record) as a
// streaming, sharded accumulation instead of a monolithic O(n·d²) sweep.
//
// Both case-study objectives are sums of per-record contributions plus a
// data-independent finalization, so the sum can be split across shards and
// merged. Two care points keep the optimization honest:
//
//   - Symmetry: per record only the upper triangle of M is filled; the
//     mirror onto the lower triangle happens once at finalization. That
//     halves the inner-loop work without changing any coefficient — the
//     mirrored entry receives the identical product sequence va·vb.
//   - Determinism: shard boundaries are a pure function of n and the
//     requested parallelism (FoldPlan), never of a governor's grant, and
//     partials merge in index order, so a run is bit-for-bit reproducible at
//     a fixed parallelism. Across different parallelism levels the floating
//     point summation tree differs, so coefficients agree only to round-off
//     (≈1e-15 relative); the privacy guarantee is indifferent to either.

// RecordTask is a Task whose objective decomposes record by record — the
// property the sharded accumulator exploits, and the only kind of task the
// mechanism folds.
type RecordTask interface {
	Task
	// AccumulateRecord adds record (x, y)'s contribution to a partial
	// objective. Implementations must write only the upper triangle of
	// acc.M (a ≤ b) and must not touch data-independent terms that belong
	// in FinalizeObjective.
	AccumulateRecord(acc *poly.Quadratic, x []float64, y float64)
	// FinalizeObjective applies the data-independent terms that depend only
	// on the record count n (e.g. the logistic n·log 2 constant, the ridge
	// penalty), after the accumulated matrix has been mirrored to full
	// symmetric form.
	FinalizeObjective(q *poly.Quadratic, n int)
}

// Accumulator builds one shard's partial objective as a stream of records.
// It never needs the full Dataset: AddRecord accepts rows one at a time, so
// an ingestion pipeline can fold records into the objective as they arrive
// and discard them immediately. Partials from different shards combine with
// Merge; Quadratic finalizes without consuming the accumulator.
//
// An Accumulator is not safe for concurrent use; use one per goroutine and
// merge.
type Accumulator struct {
	task RecordTask
	d    int
	n    int
	q    *poly.Quadratic // upper triangle of M only, unfinalized
	fast bool            // fast-math tier; set only via SetFastMath
}

// NewAccumulator returns an empty accumulator for the task over d features.
func NewAccumulator(task RecordTask, d int) *Accumulator {
	if d <= 0 {
		panic(fmt.Sprintf("core: NewAccumulator with d=%d", d))
	}
	return &Accumulator{task: task, d: d, q: poly.NewQuadratic(d)}
}

// SetFastMath switches the accumulator between the reproducible kernels
// (the default, bit-identical to the scalar fold) and the fast-math tier
// (kernel_fast.go, within the analytic error bound but not bit-identical).
// This is the single sanctioned route into the fast kernels: it is reached
// only from the WithReproducible(false) option plumbing, and the reprotier
// fmlint analyzer flags any other call site of the fast kernels themselves.
// Tasks that don't implement FastBlockTask silently stay on the exact fold.
func (a *Accumulator) SetFastMath(on bool) { a.fast = on }

// FastMath reports whether the fast-math tier is selected.
func (a *Accumulator) FastMath() bool { return a.fast }

// N returns the number of records accumulated so far.
func (a *Accumulator) N() int { return a.n }

// Task returns the record fold the accumulator maintains.
func (a *Accumulator) Task() RecordTask { return a.task }

// Dim returns the feature dimensionality d.
func (a *Accumulator) Dim() int { return a.d }

// AddRecord folds one record into the partial objective.
func (a *Accumulator) AddRecord(x []float64, y float64) {
	if len(x) != a.d {
		panic(fmt.Sprintf("core: AddRecord with %d features, accumulator has %d", len(x), a.d))
	}
	a.task.AccumulateRecord(a.q, x, y)
	a.n++
}

// AddBatch folds the shard s of ds into the partial objective. Tasks that
// implement BlockTask (all built-ins) go through the blocked SYRK-style
// kernel over the dataset's flat columnar storage — bit-identical to the
// record-by-record fold, several times faster; see kernel.go.
func (a *Accumulator) AddBatch(ds *dataset.Dataset, s dataset.Shard) {
	if s.Lo < 0 || s.Hi > ds.N() || s.Lo > s.Hi {
		panic(fmt.Sprintf("core: AddBatch shard [%d,%d) out of range [0,%d)", s.Lo, s.Hi, ds.N()))
	}
	if ds.D() != a.d {
		panic(fmt.Sprintf("core: AddBatch dataset has %d features, accumulator has %d", ds.D(), a.d))
	}
	if bt, ok := a.task.(BlockTask); ok {
		a.accumulateBlock(bt, ds.FlatRows(s.Lo, s.Hi), ds.Labels()[s.Lo:s.Hi])
	} else {
		for i := s.Lo; i < s.Hi; i++ {
			a.task.AccumulateRecord(a.q, ds.Row(i), ds.Label(i))
		}
	}
	a.n += s.Len()
}

// accumulateBlock is the tier dispatch: the fast-math kernel when the
// accumulator was switched by SetFastMath and the task provides one, the
// reproducible blocked kernel otherwise.
//
//fmlint:fastmath-dispatch reachable only when a.fast, which is set solely through SetFastMath behind WithReproducible(false)
//fm:noalloc
func (a *Accumulator) accumulateBlock(bt BlockTask, xs []float64, ys []float64) {
	if a.fast {
		if ft, ok := bt.(FastBlockTask); ok {
			ft.AccumulateBlockFast(a.q, xs, ys, a.d)
			return
		}
	}
	bt.AccumulateBlock(a.q, xs, ys, a.d)
}

// AddFlat folds len(ys) records given as flat row-major feature storage
// (stride Dim()) into the partial objective — the entry point for ingest
// pipelines that keep arriving batches in columnar form and never
// materialize per-record slices.
//
//fm:noalloc
func (a *Accumulator) AddFlat(xs []float64, ys []float64) {
	if len(xs) != len(ys)*a.d {
		panic(fmt.Sprintf("core: AddFlat with %d feature values for %d records of width %d",
			len(xs), len(ys), a.d))
	}
	if bt, ok := a.task.(BlockTask); ok {
		a.accumulateBlock(bt, xs, ys)
	} else {
		for i := range ys {
			a.task.AccumulateRecord(a.q, xs[i*a.d:(i+1)*a.d], ys[i])
		}
	}
	a.n += len(ys)
}

// Merge folds another accumulator's partial into a. Shards must be merged
// in index order for reproducibility; FoldObjective and the root package's
// seal do so.
func (a *Accumulator) Merge(o *Accumulator) {
	if o.d != a.d {
		panic(fmt.Sprintf("core: Merge dim mismatch %d vs %d", a.d, o.d))
	}
	a.q.Merge(o.q)
	a.n += o.n
}

// Quadratic finalizes and returns the accumulated objective: the upper
// triangle is mirrored to full symmetric form and the task's per-dataset
// terms are applied. The accumulator itself is left untouched, so streaming
// can continue and Quadratic can be called again later.
func (a *Accumulator) Quadratic() *poly.Quadratic {
	return a.QuadraticAs(a.task)
}

// QuadraticAs finalizes the accumulated coefficients under a different task.
// This is only sound when the two tasks share AccumulateRecord — the use case
// is RidgeTask, whose per-record contributions are exactly LinearTask's and
// which differs only in its data-independent finalization, so one live
// accumulator can serve both plain and penalized refits.
func (a *Accumulator) QuadraticAs(task RecordTask) *poly.Quadratic {
	out := a.q.Clone().MaterializeSymmetric()
	task.FinalizeObjective(out, a.n)
	return out
}

// Clone returns a deep copy sharing no state with a; the copy continues to
// accumulate under the same task.
func (a *Accumulator) Clone() *Accumulator {
	return &Accumulator{task: a.task, d: a.d, n: a.n, q: a.q.Clone(), fast: a.fast}
}

// AccumulatorState is the portable content of an Accumulator: the record
// count plus the unfinalized partial coefficients (upper triangle of M only,
// exactly as accumulated). It exists so a long-lived ingestion service can
// snapshot its live accumulators to disk and restore them after a restart
// without re-ingesting. The coefficients are raw sums over records — no noise
// has been added — so a serialized state is as sensitive as the records
// themselves and must be stored in the same trust domain.
//
// Since the accumulator only ever fills the upper triangle, current
// envelopes carry MU — the packed row-major upper triangle, d(d+1)/2 values
// — instead of the legacy full d×d matrix M whose lower half was all zeros;
// that nearly halves snapshot size at production dimensionalities. Decoders
// accept either form, so version-1 snapshot files keep restoring.
type AccumulatorState struct {
	N     int         `json:"n"`
	Alpha []float64   `json:"alpha"`
	M     [][]float64 `json:"m,omitempty"`  // legacy: d×d row-major, lower triangle zero
	MU    []float64   `json:"mu,omitempty"` // packed upper triangle, row-major
	Beta  float64     `json:"beta"`
}

// packedUpperLen returns d(d+1)/2, the packed upper-triangle size.
func packedUpperLen(d int) int { return d * (d + 1) / 2 }

// State returns a deep copy of the accumulator's content in packed form.
func (a *Accumulator) State() AccumulatorState {
	st := AccumulatorState{
		N:     a.n,
		Alpha: append([]float64(nil), a.q.Alpha...),
		MU:    make([]float64, 0, packedUpperLen(a.d)),
		Beta:  a.q.Beta,
	}
	for i := 0; i < a.d; i++ {
		st.MU = append(st.MU, a.q.M.Row(i)[i:]...)
	}
	return st
}

// AccumulatorFromState rebuilds an accumulator from a snapshot taken with
// State, accepting both the packed (MU) and the legacy full-matrix (M)
// layout. The task must match the one the coefficients were accumulated
// under; that correspondence is the caller's responsibility (the state
// carries no task tag).
func AccumulatorFromState(task RecordTask, st AccumulatorState) (*Accumulator, error) {
	d := len(st.Alpha)
	if d == 0 {
		return nil, fmt.Errorf("core: accumulator state has no coefficients")
	}
	if st.N < 0 {
		return nil, fmt.Errorf("core: accumulator state has negative record count %d", st.N)
	}
	a := NewAccumulator(task, d)
	a.n = st.N
	copy(a.q.Alpha, st.Alpha)
	a.q.Beta = st.Beta
	switch {
	case st.MU != nil:
		if len(st.MU) != packedUpperLen(d) {
			return nil, fmt.Errorf("core: accumulator state packed triangle has %d entries for %d coefficients (want %d)",
				len(st.MU), d, packedUpperLen(d))
		}
		off := 0
		for i := 0; i < d; i++ {
			copy(a.q.M.Row(i)[i:], st.MU[off:off+d-i])
			off += d - i
		}
	case st.M != nil:
		if len(st.M) != d {
			return nil, fmt.Errorf("core: accumulator state matrix has %d rows for %d coefficients", len(st.M), d)
		}
		for i, row := range st.M {
			if len(row) != d {
				return nil, fmt.Errorf("core: accumulator state row %d has %d entries, want %d", i, len(row), d)
			}
			copy(a.q.M.Row(i), row)
		}
	default:
		return nil, fmt.Errorf("core: accumulator state carries no coefficient matrix")
	}
	return a, nil
}

// minShardRecords is the smallest shard worth a goroutine: below this the
// accumulation is cheaper than the spawn/merge overhead, and small inputs
// (every unit-test fixture) stay on the serial path, which is bit-identical
// to the historical single-sweep implementation.
const minShardRecords = 2048

// effectiveParallelism resolves the Options.Parallelism convention (0 means
// all available cores) and caps the worker count so every worker has at
// least minShardRecords records.
func effectiveParallelism(requested, n int) int {
	p := requested
	if p <= 0 {
		p = runtime.GOMAXPROCS(0)
	}
	if max := n / minShardRecords; p > max {
		p = max
	}
	if p < 1 {
		p = 1
	}
	return p
}

// FoldPlan is the fixed reduction plan of a fold over n records at the given
// parallelism, shared by FoldObjective and the root package's seal. The plan
// depends on n and parallelism alone — never on a grant.
func FoldPlan(n, parallelism int) []dataset.Shard {
	return dataset.Shards(n, effectiveParallelism(parallelism, n))
}

// FoldChunkRows is the chunk size, in records, a sealed fold streams a
// shard through: a fixed multiple of the kernel tile, so chunk boundaries
// fall on tile boundaries and even the fast-math tier (which reduces its
// lanes per tile) folds a shard exactly as one AddFlat call over it would.
func FoldChunkRows(d int) int { return 8 * kernelTileRows(d) }

// RunShards calls fold(i) once for every shard index i in [0, k) on a
// worker pool and returns when all have finished. Under a governor the pool
// is as wide as the grant (at most k); the grant never changes which shards
// exist, so it changes only speed, never the bits of the partials. The
// kernel phase, tagged with tier, is reported to probe from after the grant.
func RunShards(k int, gov Governor, probe Probe, tier string, fold func(i int)) {
	workers := k
	if gov != nil {
		granted, release := gov.Acquire(k)
		defer release()
		if granted >= 1 && granted < workers {
			workers = granted
		}
	}
	defer startPhaseTier(probe, PhaseKernel, tier)()
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < k; i = int(next.Add(1) - 1) {
				fold(i)
			}
		}()
	}
	wg.Wait()
}

// FoldObjective builds task's exact objective over ds on the fixed
// reduction plan SealDataset uses: the FoldPlan shards for
// opts.Parallelism, each folded into its own partial on the RunShards pool
// (reporting the kernel phase on opts.Probe, on the tier opts.FastMath
// selects), merged in shard order. A governor's grant sizes only the pool,
// so the result is bit-identical whatever the grant; it depends on n and
// the requested parallelism alone.
func FoldObjective(task RecordTask, ds *dataset.Dataset, opts Options) *poly.Quadratic {
	tier := KernelTier(ds.D(), opts.FastMath)
	if effectiveParallelism(opts.Parallelism, ds.N()) == 1 {
		// The plan's single [0, n) shard, folded inline: the serial path
		// spends no pool, closure or shard slice.
		if opts.Governor != nil {
			_, release := opts.Governor.Acquire(1)
			defer release()
		}
		defer startPhaseTier(opts.Probe, PhaseKernel, tier)()
		return foldShard(task, ds, dataset.Shard{Hi: ds.N()}, opts.FastMath).Quadratic()
	}
	shards := FoldPlan(ds.N(), opts.Parallelism)
	parts := make([]*Accumulator, len(shards))
	RunShards(len(shards), opts.Governor, opts.Probe, tier, func(i int) {
		parts[i] = foldShard(task, ds, shards[i], opts.FastMath)
	})
	for _, p := range parts[1:] {
		parts[0].Merge(p)
	}
	return parts[0].Quadratic()
}

// foldShard folds shard s of ds into a fresh accumulator.
func foldShard(task RecordTask, ds *dataset.Dataset, s dataset.Shard, fastMath bool) *Accumulator {
	a := NewAccumulator(task, ds.D())
	a.SetFastMath(fastMath)
	a.AddBatch(ds, s)
	return a
}
