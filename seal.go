package funcmech

import (
	"errors"
	"fmt"

	"funcmech/internal/core"
	"funcmech/internal/dataset"
)

// SealDataset folds every record of ds into a new Accumulator: the one
// O(n·d²) pass over an immutable dataset, after which each private release
// is an O(d²) FitTaskFromAccumulator call drawing fresh noise, with the
// same ε guarantee as FitTask. Of the options, WithIntercept,
// WithBinarizeThreshold and WithReproducible shape the fold exactly as for
// NewAccumulator; WithParallelism fixes the reduction plan; WithGovernor
// and WithProbe apply as for FitTask, the probe seeing the kernel phase.
//
// The reduction plan is fixed: ds splits into core.FoldPlan's shards for
// the requested parallelism, each shard folds into its own partial, and the
// partials merge in shard order. A governor's grant decides only how many
// goroutines work through those shards, never the shards themselves, so the
// sealed coefficients — and every fit released from them at a fixed seed —
// are bit-identical whatever the grant, and equal to FitTask's at that
// parallelism (FitTask is this seal, restricted to one fold, plus a
// release). Records stream through pooled tile-sized scratch; ds itself is
// never copied.
//
// Like any Accumulator the result holds raw sums, as sensitive as ds.
func SealDataset(ds *Dataset, opts ...Option) (*Accumulator, error) {
	return sealDataset(ds, buildConfig(opts), "")
}

// sealDataset is SealDataset over a built config, maintaining only the fold
// named by only (every fold when only is empty).
func sealDataset(ds *Dataset, cfg config, only string) (*Accumulator, error) {
	if cfg.opts.Parallelism < 0 {
		return nil, fmt.Errorf("funcmech: negative parallelism %d", cfg.opts.Parallelism)
	}
	n := ds.Len()
	if n == 0 {
		return nil, errors.New("funcmech: cannot seal an empty dataset")
	}
	shards := core.FoldPlan(n, cfg.opts.Parallelism)
	parts := make([]*Accumulator, len(shards))
	errs := make([]error, len(shards))
	schema := ds.Schema()
	for i := range parts {
		parts[i] = newAccumulator(schema, cfg, only)
	}
	tier := core.KernelTier(parts[0].d, cfg.opts.FastMath)
	core.RunShards(len(shards), cfg.opts.Governor, cfg.opts.Probe, tier, func(i int) {
		errs[i] = parts[i].addShard(ds.inner, shards[i])
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	for _, p := range parts[1:] {
		if err := parts[0].Merge(p); err != nil {
			return nil, err
		}
	}
	return parts[0], nil
}

// addShard folds records [s.Lo, s.Hi) of inner, in core.FoldChunkRows-sized
// chunks read straight from the dataset's flat storage.
func (a *Accumulator) addShard(inner *dataset.Dataset, s dataset.Shard) error {
	chunk := core.FoldChunkRows(a.d)
	nf := inner.D()
	for lo := s.Lo; lo < s.Hi; lo += chunk {
		hi := min(lo+chunk, s.Hi)
		xs, ys := inner.FlatRows(lo, hi), inner.Labels()[lo:hi]
		if err := a.checkRows(xs, nf, ys, 1, hi-lo, lo); err != nil {
			return err
		}
		a.foldRows(xs, nf, ys, 1, hi-lo, lo)
	}
	return nil
}
