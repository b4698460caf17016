package serve

import (
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"funcmech"
	"funcmech/internal/obs"
)

// fitAll posts k identical fits concurrently and returns their responses.
func fitAll(t *testing.T, base string, req fitRequest, k int) []fitResponse {
	t.Helper()
	out := make([]fitResponse, k)
	var wg sync.WaitGroup
	for i := range out {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp := postJSON(t, base+"/v1/fit", req)
			if resp.StatusCode != http.StatusOK {
				resp.Body.Close()
				t.Errorf("%s fit %d: status %d", req.Model, i, resp.StatusCode)
				return
			}
			out[i] = decode[fitResponse](t, resp)
		}(i)
	}
	wg.Wait()
	return out
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestSealedFitsBitIdenticalWhateverTheGrant: same-seed /v1/fits racing on
// servers whose governor grants 1..p workers all release the same weights,
// equal to library FitTask at parallelism p, for every registered task —
// and the racing first fits on one fold shape fold the dataset once.
func TestSealedFitsBitIdenticalWhateverTheGrant(t *testing.T) {
	const par, racers = 4, 4
	ds, err := GenerateCensus("us", par*2048+301, 5)
	if err != nil {
		t.Fatal(err)
	}
	var threshold float64 = 60000
	reqFor := func(info funcmech.TaskInfo) (fitRequest, []funcmech.Option) {
		req := fitRequest{Tenant: "acme", Dataset: "census", Model: info.Name, Epsilon: 0.5,
			Options: fitOptions{Intercept: true, Parallelism: par, Seed: ptr(int64(77))}}
		opts := []funcmech.Option{funcmech.WithIntercept(), funcmech.WithParallelism(par), funcmech.WithSeed(77)}
		if info.Boolean {
			req.Options.BinarizeThreshold = &threshold
			opts = append(opts, funcmech.WithBinarizeThreshold(threshold))
		}
		if info.NeedsRidgeWeight {
			req.Options.RidgeWeight = 0.1
			opts = append(opts, funcmech.WithRidge(0.1))
		}
		return req, opts
	}

	for grant := 1; grant <= par; grant++ {
		s, ts := newTestServer(t, Config{MaxConcurrentFits: racers, WorkerCap: grant})
		if err := s.Registry().Register("census", ds); err != nil {
			t.Fatal(err)
		}
		createTenant(t, ts.URL, "acme", 100)
		shapes := map[bool]bool{}
		for _, info := range funcmech.Tasks() {
			req, opts := reqFor(info)
			want, _, err := funcmech.FitTask(ds, info.Name, req.Epsilon, opts...)
			if err != nil {
				t.Fatal(err)
			}
			for i, got := range fitAll(t, ts.URL, req, racers) {
				if !sameBits(got.Weights, want.Weights()) {
					t.Fatalf("grant %d, %s fit %d: weights %v, want FitTask's %v", grant, info.Name, i, got.Weights, want.Weights())
				}
			}
			shapes[info.Boolean] = true
			if got := s.registry.seals.Load(); got != uint64(len(shapes)) {
				t.Fatalf("grant %d after %s: %d seals, want one per fold shape (%d)", grant, info.Name, got, len(shapes))
			}
		}
	}
}

func tenantSpent(t *testing.T, s *Server) float64 {
	t.Helper()
	tn, _ := s.Tenants().Lookup("acme")
	return tn.Session.Spent()
}

// TestSealedFitErrorParity: the cache changes no error a client sees nor
// the charge behind it.
func TestSealedFitErrorParity(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	registerRowsDataset(t, ts.URL, "toy", 300)
	createTenant(t, ts.URL, "acme", 10)

	// A logistic fit with no threshold on a non-boolean target fails after
	// the charge, on the miss that seals and on the hit that follows.
	logit := fitRequest{Tenant: "acme", Dataset: "toy", Model: "logistic", Epsilon: 0.5}
	for i, want := range []float64{0.5, 1} {
		resp := postJSON(t, ts.URL+"/v1/fit", logit)
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Fatalf("logistic fit %d: status %d, want 422", i, resp.StatusCode)
		}
		if body := decode[errorResponse](t, resp); body.Error.Code != codeFitFailed {
			t.Fatalf("logistic fit %d: code %q, want %q", i, body.Error.Code, codeFitFailed)
		}
		if got := tenantSpent(t, s); got != want {
			t.Fatalf("after logistic fit %d: spent %v, want %v (the charge stands)", i, got, want)
		}
	}
	if got := s.registry.seals.Load(); got != 1 {
		t.Fatalf("seals = %d, want 1 (the failed release reused the seal)", got)
	}

	// reproducible:false folds its own fast-math entry, which agrees with
	// the reproducible one within the analytic bound.
	lin := fitRequest{Tenant: "acme", Dataset: "toy", Model: "linear", Epsilon: 0.5,
		Options: fitOptions{Seed: ptr(int64(9))}}
	exact := fitAll(t, ts.URL, lin, 1)[0]
	lin.Options.Reproducible = ptr(false)
	fast := fitAll(t, ts.URL, lin, 1)[0]
	if got := s.registry.seals.Load(); got != 2 {
		t.Fatalf("seals = %d, want 2 (fast math is its own fold shape)", got)
	}
	for i, w := range fast.Weights {
		if e := exact.Weights[i]; math.Abs(w-e) > 1e-9*(1+math.Abs(e)) {
			t.Fatalf("fast-math weight %d = %v, reproducible %v", i, w, e)
		}
	}

	// Refusals ahead of the charge stay ahead of it.
	spent := tenantSpent(t, s)
	for _, c := range []struct {
		req    fitRequest
		status int
	}{
		{fitRequest{Tenant: "acme", Dataset: "ghost", Model: "linear", Epsilon: 0.5}, http.StatusNotFound},
		{fitRequest{Tenant: "acme", Dataset: "toy", Model: "linear", Epsilon: 0.5,
			Options: fitOptions{Parallelism: -1}}, http.StatusBadRequest},
	} {
		resp := postJSON(t, ts.URL+"/v1/fit", c.req)
		resp.Body.Close()
		if resp.StatusCode != c.status {
			t.Fatalf("%+v: status %d, want %d", c.req, resp.StatusCode, c.status)
		}
	}
	if got := tenantSpent(t, s); got != spent {
		t.Fatalf("refused fits charged ε: spent %v, want %v", got, spent)
	}
}

// TestFitTraceCacheAttribute: the dataset span says whether the fit found
// its fold shape sealed; only the miss runs a kernel span.
func TestFitTraceCacheAttribute(t *testing.T) {
	srv, h := newObsTestServer(t, 10)
	ids := []string{"5ea1000000000001", "5ea1000000000002", "5ea1000000000003"}
	for _, id := range ids {
		if rec := doFit(t, h, id); rec.Code != http.StatusOK {
			t.Fatalf("fit %s: status %d: %s", id, rec.Code, rec.Body)
		}
	}
	views := map[string]obs.TraceView{}
	for _, v := range srv.recorder.Snapshot() {
		views[v.ID] = v
	}
	for i, id := range ids {
		wantCache, wantKernel := "hit", false
		if i == 0 {
			wantCache, wantKernel = "miss", true
		}
		var cache any
		kernel := false
		for _, sp := range views[id].Spans {
			switch sp.Name {
			case obs.SpanDataset:
				cache = sp.Attrs["cache"]
			case obs.SpanKernel:
				kernel = true
			}
		}
		if cache != wantCache || kernel != wantKernel {
			t.Fatalf("fit %d: cache=%v kernel span=%v, want cache=%s kernel span=%v", i, cache, kernel, wantCache, wantKernel)
		}
	}

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if !strings.Contains(rec.Body.String(), "\n"+metricDatasetSealsTotal+" 1\n") {
		t.Fatalf("metrics lack %s 1:\n%s", metricDatasetSealsTotal, rec.Body)
	}
}

// TestSealCacheEvictsLeastRecentlyUsed: past sealsPerDataset fold shapes
// the least recently used one is dropped and folds again on its next use;
// a failed fold is never cached.
func TestSealCacheEvictsLeastRecentlyUsed(t *testing.T) {
	r := NewRegistry()
	ds, err := GenerateCensus("us", 50, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Register("census", ds); err != nil {
		t.Fatal(err)
	}
	e, _ := r.entry("census")
	var folds atomic.Int32
	fold := func(ds *funcmech.Dataset) (*funcmech.Accumulator, error) {
		folds.Add(1)
		return funcmech.SealDataset(ds)
	}
	use := func(shards int) {
		if _, err := r.accumulator(e, sealKey{shards: shards}, fold); err != nil {
			t.Fatal(err)
		}
	}
	for k := 1; k <= sealsPerDataset; k++ {
		use(k)
	}
	use(1) // now most recently used; 2 is the eviction candidate
	use(sealsPerDataset + 1)
	if got := folds.Load(); got != sealsPerDataset+1 {
		t.Fatalf("%d folds, want %d", got, sealsPerDataset+1)
	}
	use(1)
	if got := folds.Load(); got != sealsPerDataset+1 {
		t.Fatalf("recently used shape folded again (%d folds)", got)
	}
	use(2)
	if got := folds.Load(); got != sealsPerDataset+2 {
		t.Fatalf("evicted shape was not folded again (%d folds)", got)
	}

	boom := errors.New("fold failed")
	failing := func(*funcmech.Dataset) (*funcmech.Accumulator, error) { folds.Add(1); return nil, boom }
	for i := 0; i < 2; i++ {
		if _, err := r.accumulator(e, sealKey{intercept: true}, failing); !errors.Is(err, boom) {
			t.Fatalf("err = %v, want the fold's error", err)
		}
	}
	if got := folds.Load(); got != sealsPerDataset+4 {
		t.Fatalf("a failed fold was cached (%d folds)", got)
	}
	if got := r.seals.Load(); got != sealsPerDataset+2 {
		t.Fatalf("seals = %d, want only the %d successful folds", got, sealsPerDataset+2)
	}
}
