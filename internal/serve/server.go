package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"time"

	"funcmech"
	"funcmech/internal/core"
	"funcmech/internal/obs"
	"funcmech/internal/stream"
	"funcmech/internal/wal"
)

// Config sizes a Server.
type Config struct {
	// MaxConcurrentFits bounds fits in flight; excess requests queue until a
	// slot frees or their context is cancelled. 0 means GOMAXPROCS(0).
	MaxConcurrentFits int
	// WorkerCap is the global accumulation-worker capacity shared by all
	// in-flight fits (the Governor's cap). 0 means GOMAXPROCS(0).
	WorkerCap int
}

// Server is the multi-tenant training service: an http.Handler over a
// dataset registry, a stream registry, a tenant directory and a parallelism
// governor. Construct with New, preload via Registry/Tenants/Streams, mount
// Handler.
type Server struct {
	registry *Registry
	streams  *stream.Registry
	tenants  *Tenants
	governor *Governor
	stats    *Stats
	wlog     *wal.Log      // optional write-ahead log; see wal.go
	sem      chan struct{} // counting semaphore over fits in flight
	start    time.Time
	mux      *http.ServeMux
	metrics  *metrics      // Prometheus families behind GET /metrics
	recorder *obs.Recorder // trace ring behind GET /v1/debug/traces
}

// New returns a Server with empty registry and tenant directory.
func New(cfg Config) *Server {
	maxFits := cfg.MaxConcurrentFits
	if maxFits <= 0 {
		maxFits = runtime.GOMAXPROCS(0)
	}
	s := &Server{
		registry: NewRegistry(),
		streams:  stream.NewRegistry(),
		tenants:  NewTenants(),
		governor: NewGovernor(cfg.WorkerCap),
		stats:    NewStats(),
		sem:      make(chan struct{}, maxFits),
		start:    time.Now(),
		mux:      http.NewServeMux(),
	}
	s.recorder = obs.NewRecorder(traceRingSize, nil)
	s.metrics = newMetrics(s)
	s.mux.Handle("GET /metrics", s.metrics.reg)
	s.mux.Handle("GET /v1/debug/traces", s.recorder)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("POST /v1/datasets", s.handleRegisterDataset)
	s.mux.HandleFunc("GET /v1/datasets", s.handleListDatasets)
	s.mux.HandleFunc("POST /v1/tenants", s.handleCreateTenant)
	s.mux.HandleFunc("GET /v1/tenants", s.handleListTenants)
	s.mux.HandleFunc("GET /v1/tenants/{name}", s.handleGetTenant)
	s.mux.HandleFunc("POST /v1/fit", s.handleFit)
	s.mux.HandleFunc("POST /v1/streams", s.handleCreateStream)
	s.mux.HandleFunc("GET /v1/streams", s.handleListStreams)
	s.mux.HandleFunc("POST /v1/streams/{name}/ingest", s.handleIngest)
	s.mux.HandleFunc("POST /v1/streams/{name}/refit", s.handleRefit)
	return s
}

// Registry returns the dataset registry, for startup preloading.
func (s *Server) Registry() *Registry { return s.registry }

// Streams returns the stream registry, for snapshot restore and persistence.
func (s *Server) Streams() *stream.Registry { return s.streams }

// SeedIngestStats pre-loads the service-level ingest counters after a
// snapshot restore, keeping /v1/stats totals consistent with the restored
// per-stream counts.
func (s *Server) SeedIngestStats(records, batches uint64) {
	s.stats.SeedIngest(int64(records), int64(batches))
}

// Tenants returns the tenant directory, for startup preloading.
func (s *Server) Tenants() *Tenants { return s.tenants }

// Governor returns the parallelism arbiter.
func (s *Server) Governor() *Governor { return s.governor }

// MaxInFlight returns the fit-admission bound.
func (s *Server) MaxInFlight() int { return cap(s.sem) }

// Handler returns the service's HTTP routes, wrapped in the tracing and
// metrics middleware (see middleware.go).
func (s *Server) Handler() http.Handler { return s.traced(s.mux) }

// apiError is the typed error envelope every non-2xx response carries.
type apiError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

type errorResponse struct {
	Error apiError `json:"error"`
}

// Error codes; the HTTP status is advisory, the code is the contract.
const (
	codeInvalidRequest  = "invalid_request"
	codeNotFound        = "not_found"
	codeConflict        = "conflict"
	codeBudgetExhausted = "budget_exhausted"
	codeFitFailed       = "fit_failed"
	codeInternal        = "internal"
	// codeUnknownTask is a 400 whose message enumerates the registered task
	// names — the machine-readable contract for clients probing the task
	// surface of a build.
	codeUnknownTask = "unknown_task"
)

// writeOptionsError maps a fit/refit option-validation error to its wire
// code: a task-registry miss gets the dedicated unknown_task code, anything
// else is a plain invalid request. Option validation always runs before the
// budget charge, so neither outcome consumes ε.
func (s *Server) writeOptionsError(w http.ResponseWriter, err error) {
	if errors.Is(err, funcmech.ErrUnknownTask) {
		s.writeError(w, http.StatusBadRequest, codeUnknownTask, "%v", err)
		return
	}
	s.writeError(w, http.StatusBadRequest, codeInvalidRequest, "%v", err)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // headers already sent; nothing useful left to do on error
}

// writeError writes the typed error envelope and counts the refusal by its
// code — a Server method so fm_refusals_total{reason} increments exactly
// where the API contract's error codes are assigned.
func (s *Server) writeError(w http.ResponseWriter, status int, code, format string, args ...any) {
	s.metrics.refusals.With(code).Inc()
	writeJSON(w, status, errorResponse{Error: apiError{Code: code, Message: fmt.Sprintf(format, args...)}})
}

func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		s.writeError(w, http.StatusBadRequest, codeInvalidRequest, "bad request body: %v", err)
		return false
	}
	return true
}

// GET /healthz

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":         "ok",
		"uptime_seconds": time.Since(s.start).Seconds(),
	})
}

// POST /v1/datasets

type attributeJSON struct {
	Name string  `json:"name"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
}

type schemaJSON struct {
	Features []attributeJSON `json:"features"`
	Target   attributeJSON   `json:"target"`
}

type generateJSON struct {
	Profile string `json:"profile"`
	N       int    `json:"n"`
	Seed    int64  `json:"seed"`
}

type datasetRequest struct {
	Name string `json:"name"`
	// Generate builds a synthetic census dataset server-side.
	Generate *generateJSON `json:"generate,omitempty"`
	// Schema+Rows register inline data: each row is the feature vector in
	// schema order with the target appended as the last element.
	Schema *schemaJSON `json:"schema,omitempty"`
	Rows   [][]float64 `json:"rows,omitempty"`
}

type datasetInfo struct {
	Name     string `json:"name"`
	Records  int    `json:"records"`
	Features int    `json:"features"`
}

func (s *Server) handleRegisterDataset(w http.ResponseWriter, r *http.Request) {
	if isFmbinRequest(r) {
		s.handleRegisterDatasetBinary(w, r)
		return
	}
	var req datasetRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	var (
		ds  *funcmech.Dataset
		err error
	)
	if req.Name == "" {
		s.writeError(w, http.StatusBadRequest, codeInvalidRequest, "dataset registration requires a name")
		return
	}
	switch {
	case req.Generate != nil && (req.Schema != nil || len(req.Rows) > 0):
		s.writeError(w, http.StatusBadRequest, codeInvalidRequest, "dataset %q: generate and schema/rows are mutually exclusive", req.Name)
		return
	case req.Generate != nil:
		ds, err = GenerateCensus(req.Generate.Profile, req.Generate.N, req.Generate.Seed)
		if err != nil {
			s.writeError(w, http.StatusBadRequest, codeInvalidRequest, "%v", err)
			return
		}
	case req.Schema != nil:
		ds, err = datasetFromRows(*req.Schema, req.Rows)
		if err != nil {
			s.writeError(w, http.StatusBadRequest, codeInvalidRequest, "dataset %q: %v", req.Name, err)
			return
		}
		if ds.Len() == 0 {
			s.writeError(w, http.StatusBadRequest, codeInvalidRequest, "dataset %q: no rows supplied", req.Name)
			return
		}
	default:
		s.writeError(w, http.StatusBadRequest, codeInvalidRequest, "dataset %q: supply either generate or schema+rows", req.Name)
		return
	}
	if err := s.registry.Register(req.Name, ds); err != nil {
		s.writeError(w, http.StatusConflict, codeConflict, "%v", err)
		return
	}
	writeJSON(w, http.StatusCreated, datasetInfo{Name: req.Name, Records: ds.Len(), Features: ds.NumFeatures()})
}

// handleRegisterDatasetBinary registers inline data negotiated as
// Content-Type: application/x-fmbin (docs/FORMAT.md): the body is exactly
// one fmbin frame of feature-vector-plus-target rows, so the name and
// schema ride as query parameters — ?name=...&schema={...} with the same
// schema JSON the default path embeds in its body.
func (s *Server) handleRegisterDatasetBinary(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("name")
	if name == "" {
		s.writeError(w, http.StatusBadRequest, codeInvalidRequest, "binary dataset registration requires a name query parameter")
		return
	}
	rawSchema := r.URL.Query().Get("schema")
	if rawSchema == "" {
		s.writeError(w, http.StatusBadRequest, codeInvalidRequest, "dataset %q: binary registration requires a schema query parameter", name)
		return
	}
	var sj schemaJSON
	if err := json.Unmarshal([]byte(rawSchema), &sj); err != nil {
		s.writeError(w, http.StatusBadRequest, codeInvalidRequest, "dataset %q: bad schema parameter: %v", name, err)
		return
	}
	schema := schemaFromJSON(sj)
	if err := schema.Validate(); err != nil {
		s.writeError(w, http.StatusBadRequest, codeInvalidRequest, "dataset %q: %v", name, err)
		return
	}
	want := len(schema.Features) + 1
	flat, ok := s.decodeFrameBody(w, r, want, nil)
	if !ok {
		return
	}
	if len(flat) == 0 {
		s.writeError(w, http.StatusBadRequest, codeInvalidRequest, "dataset %q: no rows supplied", name)
		return
	}
	ds := funcmech.NewDataset(schema)
	rows := len(flat) / want
	ds.Grow(rows)
	for i := 0; i < rows; i++ {
		row := flat[i*want : (i+1)*want]
		ds.Append(row[:want-1], row[want-1])
	}
	if err := s.registry.Register(name, ds); err != nil {
		s.writeError(w, http.StatusConflict, codeConflict, "%v", err)
		return
	}
	writeJSON(w, http.StatusCreated, datasetInfo{Name: name, Records: ds.Len(), Features: ds.NumFeatures()})
}

// schemaFromJSON converts the wire schema to the public type; validity is
// checked by the consumer (Schema.Validate or stream creation).
func schemaFromJSON(sj schemaJSON) funcmech.Schema {
	schema := funcmech.Schema{
		Target: funcmech.Attribute{Name: sj.Target.Name, Min: sj.Target.Min, Max: sj.Target.Max},
	}
	for _, a := range sj.Features {
		schema.Features = append(schema.Features, funcmech.Attribute{Name: a.Name, Min: a.Min, Max: a.Max})
	}
	return schema
}

func datasetFromRows(sj schemaJSON, rows [][]float64) (*funcmech.Dataset, error) {
	schema := schemaFromJSON(sj)
	if err := schema.Validate(); err != nil {
		return nil, err
	}
	ds := funcmech.NewDataset(schema)
	want := len(schema.Features) + 1
	for i, row := range rows {
		if len(row) != want {
			return nil, fmt.Errorf("row %d has %d values, want %d features + target", i, len(row), want)
		}
		ds.Append(row[:want-1], row[want-1])
	}
	return ds, nil
}

func (s *Server) handleListDatasets(w http.ResponseWriter, _ *http.Request) {
	infos := []datasetInfo{}
	for _, name := range s.registry.Names() {
		ds, _ := s.registry.Lookup(name)
		infos = append(infos, datasetInfo{Name: name, Records: ds.Len(), Features: ds.NumFeatures()})
	}
	writeJSON(w, http.StatusOK, map[string]any{"datasets": infos})
}

// POST /v1/tenants, GET /v1/tenants[/{name}]

type tenantRequest struct {
	Name   string  `json:"name"`
	Budget float64 `json:"budget"`
}

type tenantInfo struct {
	Name             string  `json:"name"`
	EpsilonTotal     float64 `json:"epsilon_total"`
	EpsilonSpent     float64 `json:"epsilon_spent"`
	EpsilonRemaining float64 `json:"epsilon_remaining"`
	Fits             int64   `json:"fits"`
	BudgetRefusals   int64   `json:"budget_refusals"`
}

func infoFor(t *Tenant) tenantInfo {
	return tenantInfo{
		Name:             t.Name,
		EpsilonTotal:     t.Session.Total(),
		EpsilonSpent:     t.Session.Spent(),
		EpsilonRemaining: t.Session.Remaining(),
		Fits:             t.Fits(),
		BudgetRefusals:   t.Exhausted(),
	}
}

func (s *Server) handleCreateTenant(w http.ResponseWriter, r *http.Request) {
	var req tenantRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	t, err := s.tenants.Create(req.Name, req.Budget)
	if err != nil {
		status, code := http.StatusBadRequest, codeInvalidRequest
		switch {
		case errors.Is(err, errWALAppend):
			// A server-side durability failure, not a malformed request —
			// same mapping as a charge whose journal append fails.
			status, code = http.StatusInternalServerError, codeInternal
		default:
			if _, exists := s.tenants.Lookup(req.Name); exists {
				status, code = http.StatusConflict, codeConflict
			}
		}
		s.writeError(w, status, code, "%v", err)
		return
	}
	writeJSON(w, http.StatusCreated, infoFor(t))
}

func (s *Server) handleGetTenant(w http.ResponseWriter, r *http.Request) {
	t, ok := s.tenants.Lookup(r.PathValue("name"))
	if !ok {
		s.writeError(w, http.StatusNotFound, codeNotFound, "unknown tenant %q", r.PathValue("name"))
		return
	}
	writeJSON(w, http.StatusOK, infoFor(t))
}

func (s *Server) handleListTenants(w http.ResponseWriter, _ *http.Request) {
	infos := []tenantInfo{}
	for _, t := range s.tenants.All() {
		infos = append(infos, infoFor(t))
	}
	writeJSON(w, http.StatusOK, map[string]any{"tenants": infos})
}

// GET /v1/stats

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	p50, p99 := s.stats.Percentiles()
	tenants := []tenantInfo{}
	for _, t := range s.tenants.All() {
		tenants = append(tenants, infoFor(t))
	}
	streams := []streamInfo{}
	for _, st := range s.streams.All() {
		streams = append(streams, infoForStream(st))
	}
	payload := map[string]any{
		"fits_total":          s.stats.Fits(),
		"fits_failed":         s.stats.Failed(),
		"fits_refused_budget": s.stats.FitsRefusedBudget(),
		"fits_error":          s.stats.FitsError(),
		"fits_in_flight":      len(s.sem),
		"worker_cap":          s.governor.Cap(),
		"workers_in_use":      s.governor.InUse(),
		"workers_queued":      s.governor.Waiting(),
		"fit_latency_ms":      map[string]float64{"p50": ms(p50), "p99": ms(p99)},
		"ingest": map[string]int64{
			"records_total": s.stats.IngestRecords(),
			"batches_total": s.stats.IngestBatches(),
		},
		"refits_total":          s.stats.Refits(),
		"refits_failed":         s.stats.RefitsFailed(),
		"refits_refused_budget": s.stats.RefitsRefusedBudget(),
		"refits_error":          s.stats.RefitsError(),
		"streams":               streams,
		"tenants":               tenants,
		"datasets":              s.registry.Names(),
		"uptime_seconds":        time.Since(s.start).Seconds(),
		"max_fits_inflight":     cap(s.sem),
	}
	if s.wlog != nil {
		payload["wal"] = map[string]any{
			"last_lsn": s.wlog.LastLSN(),
			"segments": s.wlog.Segments(),
		}
	}
	writeJSON(w, http.StatusOK, payload)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// POST /v1/fit

type fitOptions struct {
	// PostProcess is one of "regularize+trim" (default), "regularize",
	// "resample" (costs 2ε), "none".
	PostProcess       string   `json:"post_process,omitempty"`
	LambdaFactor      float64  `json:"lambda_factor,omitempty"`
	RidgeWeight       float64  `json:"ridge_weight,omitempty"`
	Intercept         bool     `json:"intercept,omitempty"`
	BinarizeThreshold *float64 `json:"binarize_threshold,omitempty"`
	Parallelism       int      `json:"parallelism,omitempty"`
	// Reproducible selects the accumulation tier: omitted or true runs the
	// reproducible kernels (bit-identical results at a fixed seed and
	// parallelism), false the fast-math tier (within the analytic error
	// bound, not bit-identical; same ε either way).
	Reproducible *bool  `json:"reproducible,omitempty"`
	Seed         *int64 `json:"seed,omitempty"`
}

type fitRequest struct {
	Tenant  string     `json:"tenant"`
	Dataset string     `json:"dataset"`
	Model   string     `json:"model"` // a registered task: linear | ridge | logistic | median
	Epsilon float64    `json:"epsilon"`
	Options fitOptions `json:"options"`
}

type reportJSON struct {
	EpsilonSpent float64 `json:"epsilon_spent"`
	Delta        float64 `json:"delta"`
	NoiseScale   float64 `json:"noise_scale"`
	Lambda       float64 `json:"lambda"`
	Trimmed      int     `json:"trimmed"`
	Resamples    int     `json:"resamples"`
}

type fitResponse struct {
	Tenant           string     `json:"tenant"`
	Dataset          string     `json:"dataset"`
	Model            string     `json:"model"`
	Weights          []float64  `json:"weights"`
	Report           reportJSON `json:"report"`
	EpsilonRemaining float64    `json:"epsilon_remaining"`
	ElapsedMS        float64    `json:"elapsed_ms"`
}

// buildFitCore maps the option surface shared by /v1/fit and
// /v1/streams/{name}/refit — post-processing, λ-factor, seed, and the
// model/ridge-weight pairing — so the two endpoints cannot drift.
func buildFitCore(postProcess string, lambdaFactor float64, seed *int64, model string, ridgeWeight float64) ([]funcmech.Option, error) {
	var opts []funcmech.Option
	switch postProcess {
	case "", "regularize+trim":
	case "regularize":
		opts = append(opts, funcmech.WithPostProcess(funcmech.RegularizeOnly))
	case "resample":
		opts = append(opts, funcmech.WithPostProcess(funcmech.Resample))
	case "none":
		opts = append(opts, funcmech.WithPostProcess(funcmech.NoPostProcess))
	default:
		return nil, fmt.Errorf("unknown post_process %q", postProcess)
	}
	if lambdaFactor != 0 {
		opts = append(opts, funcmech.WithLambdaFactor(lambdaFactor))
	}
	if seed != nil {
		opts = append(opts, funcmech.WithSeed(*seed))
	}
	spec, ok := funcmech.LookupTask(model)
	if !ok {
		return nil, fmt.Errorf("%w %q (registered tasks: %s)",
			funcmech.ErrUnknownTask, model, strings.Join(funcmech.TaskNames(), ", "))
	}
	switch {
	case spec.NeedsRidgeWeight && ridgeWeight <= 0:
		return nil, fmt.Errorf("model %q requires positive ridge_weight, got %v", model, ridgeWeight)
	case !spec.NeedsRidgeWeight && ridgeWeight != 0:
		return nil, fmt.Errorf("ridge_weight requires a model that takes one (%s)", strings.Join(ridgeModels(), ", "))
	case spec.NeedsRidgeWeight:
		opts = append(opts, funcmech.WithRidge(ridgeWeight))
	}
	return opts, nil
}

// ridgeModels lists the registered tasks that take a ridge_weight.
func ridgeModels() []string {
	var names []string
	for _, t := range funcmech.Tasks() {
		if t.NeedsRidgeWeight {
			names = append(names, t.Name)
		}
	}
	return names
}

// build returns the release options of a fit: everything but the fold
// shape, which sealKey carries.
func (o fitOptions) build(model string) ([]funcmech.Option, error) {
	opts, err := buildFitCore(o.PostProcess, o.LambdaFactor, o.Seed, model, o.RidgeWeight)
	if err != nil {
		return nil, err
	}
	if o.Parallelism < 0 {
		return nil, fmt.Errorf("negative parallelism %d", o.Parallelism)
	}
	if o.BinarizeThreshold != nil {
		// buildFitCore above already resolved the model, so the lookup here
		// cannot miss.
		if spec, _ := funcmech.LookupTask(model); !spec.Boolean {
			return nil, fmt.Errorf("binarize_threshold applies only to boolean-target models")
		}
	}
	return opts, nil
}

// sealKey returns the fold shape the options select over n records, with
// the shard count resolved exactly as funcmech.SealDataset resolves it.
func (o fitOptions) sealKey(n int) sealKey {
	k := sealKey{
		intercept: o.Intercept,
		fastMath:  o.Reproducible != nil && !*o.Reproducible,
		shards:    len(core.FoldPlan(n, o.Parallelism)),
	}
	if o.BinarizeThreshold != nil {
		k.binarize, k.threshold = true, *o.BinarizeThreshold
	}
	return k
}

// handleFit is an audited noise release site: the fit below draws Laplace
// noise only after chargeDurable has debited the session and journaled the
// spend to the fsynced WAL.
//
//fmlint:releases-noise
func (s *Server) handleFit(w http.ResponseWriter, r *http.Request) {
	tr := obs.TraceFrom(r.Context())
	var req fitRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	tenant, ok := s.tenants.Lookup(req.Tenant)
	if !ok {
		s.writeError(w, http.StatusNotFound, codeNotFound, "unknown tenant %q", req.Tenant)
		return
	}
	dsSpan := tr.StartSpan(obs.SpanDataset)
	entry, ok := s.registry.entry(req.Dataset)
	if !ok {
		dsSpan.End()
		s.writeError(w, http.StatusNotFound, codeNotFound, "unknown dataset %q", req.Dataset)
		return
	}
	key := req.Options.sealKey(entry.ds.Len())
	cache := "miss"
	if entry.cached(key) {
		cache = "hit"
	}
	dsSpan.End(obs.Int("records", int64(entry.ds.Len())), obs.Int("features", int64(entry.ds.NumFeatures())),
		obs.Str("cache", cache))
	opts, err := req.Options.build(req.Model)
	if err != nil {
		s.writeOptionsError(w, err)
		return
	}
	// The probe attributes kernel vs solve vs noise time to this trace, and
	// the governor is wrapped so time blocked on worker capacity lands here
	// as a queue_wait span. With no trace on the context both degrade to the
	// bare calls.
	probe := funcmech.WithProbe(obs.TraceProbe{T: tr})
	opts = append(opts, probe)
	if req.Epsilon <= 0 {
		s.writeError(w, http.StatusBadRequest, codeInvalidRequest, "non-positive epsilon %v", req.Epsilon)
		return
	}

	// Admission: at most cap(s.sem) fits in flight; the rest queue here
	// until a slot frees or the client gives up.
	admSpan := tr.StartSpan(obs.SpanQueueWait)
	select {
	case s.sem <- struct{}{}:
		admSpan.End(obs.Str("stage", "admission"))
		defer func() { <-s.sem }()
	case <-r.Context().Done():
		admSpan.End(obs.Str("stage", "admission"))
		s.writeError(w, http.StatusServiceUnavailable, codeFitFailed, "cancelled while queued for a fit slot")
		return
	}

	start := time.Now()
	// Charge-then-fit, with the debit journaled durably in between: once the
	// WAL append returns, a crash anywhere below can only over-count the
	// tenant's spend. The fits run uncharged via the package-level functions
	// because the session was already debited here.
	if err := s.chargeDurable(tr, tenant, wal.OpFit, req.Dataset, req.Epsilon, opts); err != nil {
		s.stats.RecordFit(time.Since(start), outcomeFor(err))
		s.writeChargeError(w, tenant, err)
		return
	}
	// The first fit on a fold shape seals the dataset — the one pass over
	// its records, no noise drawn — and every fit releases from the sealed
	// accumulator in O(d²). The model name was resolved against the task
	// registry during option validation above, so the release cannot miss.
	acc, err := s.registry.accumulator(entry, key, func(ds *funcmech.Dataset) (*funcmech.Accumulator, error) {
		gov := funcmech.WithGovernor(tracedGovernor{g: s.governor, tr: tr})
		return funcmech.SealDataset(ds, append(key.options(), gov, probe)...)
	})
	var (
		weights []float64
		report  *funcmech.Report
	)
	if err == nil {
		var m *funcmech.TaskModel
		m, report, err = funcmech.FitTaskFromAccumulator(acc, req.Model, req.Epsilon, opts...)
		if err == nil {
			weights = m.Weights()
		}
	}
	elapsed := time.Since(start)
	s.stats.RecordFit(elapsed, outcomeFor(err))

	if err != nil {
		// The charge stands — a post-debit failure is itself data-dependent
		// information, so refunding it would be unsound (see Session docs).
		s.writeError(w, http.StatusUnprocessableEntity, codeFitFailed, "%v", err)
		return
	}
	tenant.fits.Add(1)
	writeJSON(w, http.StatusOK, fitResponse{
		Tenant:  req.Tenant,
		Dataset: req.Dataset,
		Model:   req.Model,
		Weights: weights,
		Report: reportJSON{
			EpsilonSpent: report.Epsilon,
			Delta:        report.Delta,
			NoiseScale:   report.NoiseScale,
			Lambda:       report.Lambda,
			Trimmed:      report.Trimmed,
			Resamples:    report.Resamples,
		},
		EpsilonRemaining: tenant.Session.Remaining(),
		ElapsedMS:        ms(elapsed),
	})
}
