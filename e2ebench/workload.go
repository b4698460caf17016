package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/url"
	"time"

	"funcmech"
	"funcmech/internal/census"
	"funcmech/internal/fmbin"
)

// opKind names the request classes the benchmark sends.
type opKind int

const (
	opFit opKind = iota
	opIngestJSON
	opIngestFmbin
	opRefit
	numOpKinds
)

var opNames = [numOpKinds]string{"fit", "ingest_json", "ingest_fmbin", "refit"}

func (k opKind) String() string { return opNames[k] }

// Fixed names of the server-side objects every workload creates.
const (
	tenantName  = "bench"
	datasetName = "us"
	streamName  = "s"
	// tenantBudget is large enough that no workload is ever refused (a 402
	// counts as a failure) and a power of two, so every ε sum stays exact.
	tenantBudget = 1 << 30
)

// epsilons are the per-release budgets requests draw from. All are dyadic
// rationals, so the tenant's spent ε is an exact float64 sum whatever order
// the server applies the charges in.
var epsilons = []float64{0.5, 1, 2, 4, 8}

// taskBlock is the task mix linear:logistic:median = 2:1:1; each block of
// four consecutive releases is a seeded shuffle of it.
var taskBlock = []string{"linear", "linear", "logistic", "median"}

// request is one HTTP call of a workload. Bodies of ingest requests are
// shared with the batch pool they were encoded from.
type request struct {
	Kind        opKind
	At          time.Duration // scheduled send time, from the window start
	Path        string
	ContentType string
	Body        []byte

	// Expectations used by the output checks.
	Model   string  // fit/refit: task name
	Epsilon float64 // fit/refit: ε charged
	Seed    *int64  // fit/refit: set on seeded sample requests
	Batch   int     // ingest: index into plan.pool
	Rows    int     // ingest: records in the batch
}

// plan is everything one workload run sends, generated from the seed alone.
type plan struct {
	seed int64

	// Stream workloads: the stream's schema and fold options, and the pool
	// of distinct batches ingest requests cycle through.
	streamBody []byte
	schema     funcmech.Schema
	threshold  float64
	pool       [][]float64 // flat row-major batches, features + target

	// fit_census: the registered dataset as one fmbin frame.
	datasetPath string
	frame       []byte
	flat        []float64 // the dataset's rows, features + target

	prefill []request // setup: stream pre-fill ingests
	warmup  []request // setup: untimed requests after registration
	window  []request // the timed, open-loop schedule
	post    []request // seeded sample refits after the window, on a quiet stream
}

// width is the record width (features + target) of the plan's data.
func (p *plan) width() int { return len(p.schema.Features) + 1 }

// workload describes one traffic mix.
type workload struct {
	name string
	// headline is the request class whose latency p50_ms reports.
	headline opKind
	build    func(p *plan, rng *rand.Rand, window time.Duration) error
}

var workloads = []*workload{
	{
		name:     "fit_census",
		headline: opFit,
		build:    buildFitCensus,
	},
	{
		name:     "ingest_telemetry",
		headline: opIngestFmbin,
		build:    buildIngestTelemetry,
	},
	{
		name:     "refit_wide",
		headline: opRefit,
		build:    buildRefitWide,
	},
}

func lookupWorkload(name string) (*workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

// newPlan generates a workload's inputs and schedule from seed alone.
func newPlan(w *workload, seed int64, window time.Duration) (*plan, error) {
	p := &plan{seed: seed}
	if err := w.build(p, rand.New(rand.NewSource(seed)), window); err != nil {
		return nil, err
	}
	return p, nil
}

// Census workload sizing.
const (
	censusRecords = 200_000
	fitRate       = 8 // fits per second
	sampleEvery   = 8 // every 8th fit carries a seed and is checked against a reference
)

func buildFitCensus(p *plan, rng *rand.Rand, window time.Duration) error {
	prof := census.US()
	raw := census.GenerateN(prof, censusRecords, rng.Int63())
	for _, a := range raw.Schema.Features {
		p.schema.Features = append(p.schema.Features, funcmech.Attribute{Name: a.Name, Min: a.Min, Max: a.Max})
	}
	t := raw.Schema.Target
	p.schema.Target = funcmech.Attribute{Name: t.Name, Min: t.Min, Max: t.Max}
	p.threshold = prof.IncomeThreshold

	d := raw.D()
	p.flat = make([]float64, 0, raw.N()*(d+1))
	for i := 0; i < raw.N(); i++ {
		p.flat = append(p.flat, raw.Row(i)...)
		p.flat = append(p.flat, raw.Label(i))
	}
	frame, err := fmbin.Encode(nil, p.flat, d+1, true)
	if err != nil {
		return err
	}
	p.frame = frame
	schemaJSON, err := json.Marshal(schemaWire(p.schema))
	if err != nil {
		return err
	}
	p.datasetPath = "/v1/datasets?" + url.Values{"name": {datasetName}, "schema": {string(schemaJSON)}}.Encode()

	mix := newReleaseMix(rng)
	for i := 0; i < 4; i++ {
		p.warmup = append(p.warmup, p.fitRequest(mix, 0, nil))
	}
	n := int(window * fitRate / time.Second)
	for i := 0; i < n; i++ {
		var seed *int64
		if i%sampleEvery == sampleEvery/2 {
			s := rng.Int63()
			seed = &s
		}
		p.window = append(p.window, p.fitRequest(mix, time.Duration(i)*time.Second/fitRate, seed))
	}
	return nil
}

// Telemetry workload sizing.
const (
	telemetryFeatures = 16
	telemetryBatch    = 1024
	telemetryRate     = 60 // ingest batches per second, alternating JSON and fmbin
	refitEvery        = 20 // batches between refits
	poolBatches       = 32 // distinct batches the ingests cycle through
)

func buildIngestTelemetry(p *plan, rng *rand.Rand, window time.Duration) error {
	if err := p.initStream(telemetryFeatures); err != nil {
		return err
	}
	p.pool = telemetryPool(rng, poolBatches, telemetryBatch, p.width())
	bodies, err := p.encodePool(true)
	if err != nil {
		return err
	}
	mix := newReleaseMix(rng)
	kindAt := func(i int) opKind { return opIngestJSON + opKind(i%2) }
	for i := 0; i < 8; i++ {
		p.warmup = append(p.warmup, p.ingestRequest(bodies, kindAt(i), rng.Intn(poolBatches), 0))
	}
	p.warmup = append(p.warmup, p.refitRequest(mix, 0, nil))

	n := int(window * telemetryRate / time.Second)
	slot := time.Second / telemetryRate
	for i := 0; i < n; i++ {
		at := time.Duration(i) * slot
		p.window = append(p.window, p.ingestRequest(bodies, kindAt(i), rng.Intn(poolBatches), at))
		if i%refitEvery == refitEvery-1 {
			p.window = append(p.window, p.refitRequest(mix, at+slot/2, nil))
		}
	}
	p.addPostSamples(rng, mix)
	return nil
}

// Wide-stream workload sizing.
const (
	wideFeatures   = 64
	widePrefill    = 64 * 1024
	widePrefillRow = 1024 // rows per pre-fill batch
	wideBatch      = 64   // rows per timed ingest
	wideRate       = 6    // refits per second, and small ingests per second
)

func buildRefitWide(p *plan, rng *rand.Rand, window time.Duration) error {
	if err := p.initStream(wideFeatures); err != nil {
		return err
	}
	// The pool holds the pre-fill batches first, then the small batches the
	// timed ingests cycle through.
	prefill := widePrefill / widePrefillRow
	p.pool = telemetryPool(rng, prefill, widePrefillRow, p.width())
	p.pool = append(p.pool, telemetryPool(rng, poolBatches, wideBatch, p.width())...)
	bodies, err := p.encodePool(false)
	if err != nil {
		return err
	}
	for i := 0; i < prefill; i++ {
		p.prefill = append(p.prefill, p.ingestRequest(bodies, opIngestFmbin, i, 0))
	}
	mix := newReleaseMix(rng)
	small := func() int { return prefill + rng.Intn(poolBatches) }
	for i := 0; i < 2; i++ {
		p.warmup = append(p.warmup, p.ingestRequest(bodies, opIngestFmbin, small(), 0))
		p.warmup = append(p.warmup, p.refitRequest(mix, 0, nil))
	}
	n := int(window * wideRate / time.Second)
	gap := time.Second / wideRate
	for i := 0; i < n; i++ {
		at := time.Duration(i) * gap
		p.window = append(p.window, p.refitRequest(mix, at, nil))
		p.window = append(p.window, p.ingestRequest(bodies, opIngestFmbin, small(), at+gap/2))
	}
	p.addPostSamples(rng, mix)
	return nil
}

// initStream sets up a telemetry stream schema of the given feature count
// and the stream-creation body: intercept on, logistic target binarized at
// zero.
func (p *plan) initStream(features int) error {
	for i := 0; i < features; i++ {
		p.schema.Features = append(p.schema.Features, funcmech.Attribute{Name: fmt.Sprintf("ch%d", i), Min: -200, Max: 200})
	}
	p.schema.Target = funcmech.Attribute{Name: "y", Min: -200, Max: 200}
	body, err := json.Marshal(map[string]any{
		"name":               streamName,
		"schema":             schemaWire(p.schema),
		"intercept":          true,
		"binarize_threshold": p.threshold,
	})
	p.streamBody = body
	return err
}

// telemetryPool draws batches shaped like sensor telemetry: full-precision
// channels that drift slowly, with only about two changing per record. The
// fmbin compressed tier collapses the unchanged channels to one byte each.
func telemetryPool(rng *rand.Rand, batches, rows, width int) [][]float64 {
	cur := make([]float64, width)
	for c := range cur {
		cur[c] = rng.Float64()*100 - 50
	}
	pool := make([][]float64, batches)
	for b := range pool {
		flat := make([]float64, 0, rows*width)
		for i := 0; i < rows; i++ {
			for k := 0; k < 2; k++ {
				cur[rng.Intn(width)] += rng.NormFloat64() * 0.01
			}
			flat = append(flat, cur...)
		}
		pool[b] = flat
	}
	return pool
}

// encodedPool holds each pool batch as an fmbin frame and, when the
// workload sends JSON ingests, as a JSON body.
type encodedPool struct{ json, fmbin [][]byte }

// encodePool encodes the batch pool. JSON encoding is most of a plan's
// generation time, so it is skipped for workloads that send no JSON.
func (p *plan) encodePool(withJSON bool) (encodedPool, error) {
	var e encodedPool
	w := p.width()
	for _, flat := range p.pool {
		if withJSON {
			rows := make([][]float64, len(flat)/w)
			for i := range rows {
				rows[i] = flat[i*w : (i+1)*w]
			}
			j, err := json.Marshal(map[string]any{"rows": rows})
			if err != nil {
				return e, err
			}
			e.json = append(e.json, j)
		}
		f, err := fmbin.Encode(nil, flat, w, true)
		if err != nil {
			return e, err
		}
		e.fmbin = append(e.fmbin, f)
	}
	return e, nil
}

func (p *plan) ingestRequest(e encodedPool, kind opKind, batch int, at time.Duration) request {
	r := request{
		Kind:  kind,
		At:    at,
		Path:  "/v1/streams/" + streamName + "/ingest",
		Batch: batch,
		Rows:  len(p.pool[batch]) / p.width(),
	}
	if kind == opIngestFmbin {
		r.ContentType, r.Body = fmbin.ContentType, e.fmbin[batch]
	} else {
		r.ContentType, r.Body = "application/json", e.json[batch]
	}
	return r
}

// releaseMix deals task names in seeded shuffles of taskBlock and draws ε.
type releaseMix struct {
	rng  *rand.Rand
	deck []string
}

func newReleaseMix(rng *rand.Rand) *releaseMix { return &releaseMix{rng: rng} }

func (m *releaseMix) next() (string, float64) {
	if len(m.deck) == 0 {
		m.deck = append(m.deck, taskBlock...)
		m.rng.Shuffle(len(m.deck), func(i, j int) { m.deck[i], m.deck[j] = m.deck[j], m.deck[i] })
	}
	model := m.deck[0]
	m.deck = m.deck[1:]
	return model, epsilons[m.rng.Intn(len(epsilons))]
}

func (p *plan) fitRequest(m *releaseMix, at time.Duration, seed *int64) request {
	model, eps := m.next()
	opts := map[string]any{"intercept": true}
	if model == "logistic" {
		opts["binarize_threshold"] = p.threshold
	}
	if seed != nil {
		opts["seed"] = *seed
	}
	body, _ := json.Marshal(map[string]any{
		"tenant": tenantName, "dataset": datasetName, "model": model, "epsilon": eps, "options": opts,
	})
	return request{Kind: opFit, At: at, Path: "/v1/fit", ContentType: "application/json", Body: body,
		Model: model, Epsilon: eps, Seed: seed}
}

func (p *plan) refitRequest(m *releaseMix, at time.Duration, seed *int64) request {
	model, eps := m.next()
	opts := map[string]any{}
	if seed != nil {
		opts["seed"] = *seed
	}
	body, _ := json.Marshal(map[string]any{
		"tenant": tenantName, "model": model, "epsilon": eps, "options": opts,
	})
	return request{Kind: opRefit, At: at, Path: "/v1/streams/" + streamName + "/refit",
		ContentType: "application/json", Body: body, Model: model, Epsilon: eps, Seed: seed}
}

// addPostSamples appends one seeded refit per task in the mix, sent after
// the window once every ingest has been acknowledged, so the stream's
// contents are known exactly and the reply can be checked against an
// in-process refit.
func (p *plan) addPostSamples(rng *rand.Rand, m *releaseMix) {
	for range taskBlock {
		s := rng.Int63()
		p.post = append(p.post, p.refitRequest(m, 0, &s))
	}
}

// schemaWire is the JSON shape of a schema on the serving API.
func schemaWire(s funcmech.Schema) map[string]any {
	attr := func(a funcmech.Attribute) map[string]any {
		return map[string]any{"name": a.Name, "min": a.Min, "max": a.Max}
	}
	features := make([]map[string]any, len(s.Features))
	for i, a := range s.Features {
		features[i] = attr(a)
	}
	return map[string]any{"features": features, "target": attr(s.Target)}
}
