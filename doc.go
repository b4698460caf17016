// Package funcmech is a Go implementation of the Functional Mechanism
// (Zhang, Zhang, Xiao, Yang, Winslett: "Functional Mechanism: Regression
// Analysis under Differential Privacy", PVLDB 5(11), 2012): ε-differentially
// private linear and logistic regression that perturbs the polynomial
// coefficients of the objective function instead of the regression output.
//
// # Quick start
//
//	schema := funcmech.Schema{
//		Features: []funcmech.Attribute{
//			{Name: "age", Min: 16, Max: 95},
//			{Name: "hours", Min: 0, Max: 99},
//		},
//		Target: funcmech.Attribute{Name: "income", Min: 0, Max: 300000},
//	}
//	ds := funcmech.NewDataset(schema)
//	for _, rec := range records {
//		ds.Append([]float64{rec.Age, rec.Hours}, rec.Income)
//	}
//	model, report, err := funcmech.LinearRegression(ds, 0.8) // ε = 0.8
//	if err != nil { ... }
//	estimate := model.Predict([]float64{41, 40}) // raw units in, raw units out
//
// Attribute Min/Max bounds must be public domain knowledge (they calibrate
// the normalization the privacy analysis requires); they must not be
// computed from the sensitive data itself.
//
// # Performance
//
// A fit's dominant cost on large datasets is accumulating the objective's
// polynomial coefficients, an O(n·d²) pass over the records. A one-shot fit
// is that fold followed by a release: FitTask streams the records straight
// from the dataset's storage into the requested task's coefficient sums —
// no copy of the data — and releases them as FitTaskFromAccumulator does.
// The pass is sharded on a fixed reduction plan — runtime.GOMAXPROCS(0)
// shards by default, tunable per fit with WithParallelism(n);
// WithParallelism(1) forces the serial sweep. Parallelism never changes the
// privacy calibration, only the floating-point summation order; a
// governor's grant (WithGovernor) changes neither, only the number of
// goroutines working through the shards.
//
// Within each shard the pass runs as a blocked, SYRK-style kernel over the
// dataset's flat columnar storage (one contiguous row-major array, stride
// d): records are processed in L1-resident tiles of 128, and the upper
// triangle of the coefficient matrix is covered in 2×4 register blocks with
// the record loop innermost. The blocking preserves bit-for-bit
// reproducibility by construction — each coefficient cell still receives
// its per-record contributions in exact arrival order, one IEEE-754
// addition at a time; the registers only spread *distinct* cells across
// independent add chains, and floating-point addition on distinct cells
// cannot interact. A fit, refit, or snapshot-restored refit therefore
// produces the same bits the scalar record-by-record fold always produced
// (fixed seed, fixed parallelism, any governor grant, in the library or in
// fmserve), while running several times faster.
//
// # Streaming and incremental refits
//
// The fit step of the functional mechanism consumes only the objective's
// polynomial coefficients, which are sums over records. An Accumulator
// exploits that: records fold into the coefficient sums as they arrive and
// are never retained, and LinearRegressionFromAccumulator /
// LogisticRegressionFromAccumulator release a private model from the cached
// sums in O(d²), independent of how many records were ever ingested.
//
// Incremental refits preserve the paper's ε guarantee unchanged, for two
// reasons. First, the accumulated coefficients are internal state, never
// released: only the noisy minimizer leaves, exactly as in Algorithm 1, and
// the sensitivity Δ of the coefficients is the same data-independent bound
// whether they were computed in one sweep or incrementally (the sums are
// identical). Second, noise is drawn fresh per release, so each refit is an
// independent ε-differentially private mechanism over the records ingested
// so far; repeated refits compose sequentially (total cost Σεᵢ), which is
// precisely what a Session enforces. What streaming does NOT weaken is also
// worth stating: an un-noised Accumulator (and any snapshot written from
// it) holds raw aggregates and is as sensitive as the records themselves —
// persist it only in the trust domain that holds the data.
//
// # Durability of the accounting
//
// A Session's budget is in-memory; serving layers that must survive
// restarts persist it and put it back with RestoreSpent. For crash safety —
// where no graceful snapshot ever ran — Charge exposes the debit as its own
// step so a caller can make it durable (e.g. a write-ahead log) before the
// mechanism draws noise, and ReplaySpend re-applies journaled debits on
// boot, clamped at the total. The resulting guarantee is one-sided by
// design: a crash may over-count ε-spend (a durable debit whose fit never
// released), never under-count it. See internal/serve and internal/wal for
// the served implementation.
//
// # What the privacy guarantee covers
//
// The returned model weights are ε-differentially private with respect to
// replacing any single record of the training dataset, per the paper's
// Theorem 1. Everything else the library reports (the Report struct) is
// derived from public parameters or from the already-private coefficients.
// Randomness comes from math/rand seeded via options — fine for research and
// reproduction, but calibrate expectations accordingly: a production
// deployment against a capable adversary would swap in a cryptographic
// source and guard against floating-point side channels, which are outside
// this library's scope (as they were outside the paper's).
//
// These invariants are machine-checked, not just documented: the fmlint
// analyzer suite (internal/lint, run via cmd/fmlint as a required CI gate)
// statically verifies that no serving code reaches a noise draw except
// through an audited charge-then-journal release site, that atomic renames
// are made durable with a directory fsync, that the bit-identity packages
// never fold floats under nondeterministic map iteration or read ambient
// entropy and wall clocks, and that the //fm:noalloc hot paths stay
// allocation-free. A change that silently weakened the ε-accounting or the
// reproducibility story would fail the build before it reached review.
//
// # Architecture
//
// The public API wraps the internal packages, which mirror the paper:
// internal/core implements Algorithms 1–2 and the §6 post-processing,
// internal/baseline the DPME/FP/NoPrivacy/Truncated comparison methods,
// internal/experiments the §7 evaluation harness (see cmd/fmbench), and
// internal/{linalg,noise,poly,dataset,census,histogram,regression} the
// substrates they stand on. See DESIGN.md for the full inventory,
// docs/ARCHITECTURE.md for the served-system map with the data-sensitivity
// table (which artifacts are un-noised and must stay in the trust domain),
// and docs/FORMAT.md for the fmbin binary wire format shared by ingest,
// snapshots and accumulator envelopes.
package funcmech
