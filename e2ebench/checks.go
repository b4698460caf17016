package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"

	"funcmech"
)

// refTolerance bounds how far a seeded served release may sit from the
// in-process reference with the same seed: every weight within
// refTolerance × max(1, ‖w_ref‖∞). Releases differ below it only through
// floating-point summation order (the governor's load-dependent worker
// grant, or ingest batches folded in arrival rather than schedule order).
const refTolerance = 1e-6

type releaseReply struct {
	Weights        []float64 `json:"weights"`
	RecordsCovered uint64    `json:"records_covered"`
	Report         struct {
		EpsilonSpent float64 `json:"epsilon_spent"`
		Trimmed      int     `json:"trimmed"`
	} `json:"report"`
}

type ingestReply struct {
	Accepted int `json:"accepted"`
}

// sample is a seeded release kept for the reference check.
type sample struct {
	req     *request
	weights []float64
	covered uint64
}

// ledger counts operations and checks every output as it arrives.
type ledger struct {
	plan      *plan
	attempted int
	failed    int
	problems  []string // the first few failures, for the log

	charged  float64 // Σ ε of acknowledged releases
	accepted uint64  // Σ rows of acknowledged ingests
	folded   []int   // pool index of every acknowledged ingest, in schedule order
	samples  []sample

	refChecked, refBitDiff int
}

func newLedger(p *plan) *ledger { return &ledger{plan: p} }

func (l *ledger) fail(format string, args ...any) {
	l.failed++
	if len(l.problems) < 10 {
		l.problems = append(l.problems, fmt.Sprintf(format, args...))
	}
}

// record checks one reply and reports whether it passed.
func (l *ledger) record(r *request, o *outcome) bool {
	l.attempted++
	before := l.failed
	switch {
	case o.Err != nil:
		l.fail("%s %s: %v", r.Kind, r.Path, o.Err)
	case o.Status != http.StatusOK:
		l.fail("%s %s: status %d: %.200s", r.Kind, r.Path, o.Status, o.Body)
	case r.Kind == opFit || r.Kind == opRefit:
		l.checkRelease(r, o.Body)
	default:
		var rep ingestReply
		if err := json.Unmarshal(o.Body, &rep); err != nil {
			l.fail("%s: bad reply: %v", r.Kind, err)
		} else if rep.Accepted != r.Rows {
			l.fail("%s: accepted %d rows, sent %d", r.Kind, rep.Accepted, r.Rows)
		} else {
			l.accepted += uint64(rep.Accepted)
			l.folded = append(l.folded, r.Batch)
		}
	}
	return l.failed == before
}

func (l *ledger) checkRelease(r *request, body []byte) {
	var rep releaseReply
	if err := json.Unmarshal(body, &rep); err != nil {
		l.fail("%s: bad reply: %v", r.Kind, err)
		return
	}
	// Every workload fits with an intercept: d feature weights plus a bias.
	if want := len(l.plan.schema.Features) + 1; len(rep.Weights) != want {
		l.fail("%s %s: %d weights, want %d", r.Kind, r.Model, len(rep.Weights), want)
		return
	}
	for _, w := range rep.Weights {
		if math.IsNaN(w) || math.IsInf(w, 0) {
			l.fail("%s %s: non-finite weight %v", r.Kind, r.Model, w)
			return
		}
	}
	if rep.Report.EpsilonSpent != r.Epsilon {
		l.fail("%s %s: charged ε=%v, asked %v", r.Kind, r.Model, rep.Report.EpsilonSpent, r.Epsilon)
		return
	}
	l.charged += r.Epsilon
	if r.Seed != nil {
		l.samples = append(l.samples, sample{req: r, weights: rep.Weights, covered: rep.RecordsCovered})
	}
}

// checkTotals compares the server's own accounting with the ledger: the
// tenant's spent ε must equal the sum of acknowledged charges and the
// stream's record count the sum of acknowledged rows, both exactly.
func (l *ledger) checkTotals(ctx context.Context, c *client) error {
	body, err := c.get(ctx, "/v1/tenants/"+tenantName)
	if err != nil {
		return err
	}
	var t struct {
		Spent float64 `json:"epsilon_spent"`
	}
	if err := json.Unmarshal(body, &t); err != nil {
		return err
	}
	if t.Spent != l.charged {
		l.fail("tenant spent ε = %v, sum of acknowledged charges = %v", t.Spent, l.charged)
	}
	if l.plan.streamBody == nil {
		return nil
	}
	body, err = c.get(ctx, "/v1/streams")
	if err != nil {
		return err
	}
	var s struct {
		Streams []struct {
			Name    string `json:"name"`
			Records uint64 `json:"records"`
		} `json:"streams"`
	}
	if err := json.Unmarshal(body, &s); err != nil {
		return err
	}
	for _, st := range s.Streams {
		if st.Name == streamName && st.Records != l.accepted {
			l.fail("stream records_total = %d, sum of acknowledged rows = %d", st.Records, l.accepted)
		}
	}
	return nil
}

// checkSamples recomputes every seeded sample in process with the same
// seed and options: FitTask over the registered rows for fits, and
// FitTaskFromAccumulator over every acknowledged batch, folded in schedule
// order, for refits (sent once the stream is quiet).
func (l *ledger) checkSamples() error {
	if len(l.samples) == 0 {
		return nil
	}
	p := l.plan
	var (
		ds  *funcmech.Dataset
		acc *funcmech.Accumulator
	)
	for _, s := range l.samples {
		opts := []funcmech.Option{funcmech.WithSeed(*s.req.Seed)}
		var (
			m   *funcmech.TaskModel
			err error
		)
		if s.req.Kind == opFit {
			if ds == nil {
				ds = datasetOf(p.schema, p.flat)
			}
			opts = append(opts, funcmech.WithIntercept())
			if s.req.Model == "logistic" {
				opts = append(opts, funcmech.WithBinarizeThreshold(p.threshold))
			}
			m, _, err = funcmech.FitTask(ds, s.req.Model, s.req.Epsilon, opts...)
		} else {
			if acc == nil {
				if acc, err = p.accumulator(); err != nil {
					return err
				}
				for _, b := range l.folded {
					if _, err := acc.AddFlat(p.pool[b]); err != nil {
						return err
					}
				}
			}
			if s.covered != uint64(acc.Len()) {
				l.fail("seeded refit covered %d records, reference holds %d", s.covered, acc.Len())
				continue
			}
			m, _, err = funcmech.FitTaskFromAccumulator(acc, s.req.Model, s.req.Epsilon, opts...)
		}
		if err != nil {
			return fmt.Errorf("reference %s %s: %w", s.req.Kind, s.req.Model, err)
		}
		l.refChecked++
		within, identical := compareWeights(s.weights, m.Weights())
		switch {
		case !within:
			l.fail("seeded %s %s: weights %v outside tolerance of reference %v", s.req.Kind, s.req.Model, s.weights, m.Weights())
		case !identical:
			l.refBitDiff++
		}
	}
	return nil
}

// compareWeights reports whether got lies within refTolerance of ref and
// whether the two are bit-identical.
func compareWeights(got, ref []float64) (within, identical bool) {
	scale := 1.0
	for _, w := range ref {
		scale = max(scale, math.Abs(w))
	}
	within, identical = len(got) == len(ref), len(got) == len(ref)
	for i := 0; i < len(got) && within; i++ {
		within = math.Abs(got[i]-ref[i]) <= refTolerance*scale
		identical = identical && math.Float64bits(got[i]) == math.Float64bits(ref[i])
	}
	return within, identical && within
}

// accumulator returns an empty accumulator folding like the stream.
func (p *plan) accumulator() (*funcmech.Accumulator, error) {
	return funcmech.NewAccumulator(p.schema, funcmech.WithIntercept(), funcmech.WithBinarizeThreshold(p.threshold))
}
