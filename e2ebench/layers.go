package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"funcmech"
	"funcmech/internal/fmbin"
	"funcmech/internal/serve"
	"funcmech/internal/stream"
	"funcmech/internal/wal"
)

// spanLog records the benchmark's own spans around in-process layer calls.
// A span's parent is the index of an earlier span, or -1 for a root.
type spanLog struct {
	mu    sync.Mutex
	t0    time.Time
	spans []loggedSpan
}

type loggedSpan struct {
	Name   string
	Parent int
	iv     interval
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

func (l *spanLog) start(name string, parent int) int {
	now := time.Since(l.t0)
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, loggedSpan{Name: name, Parent: parent, iv: interval{now, now}})
	return len(l.spans) - 1
}

func (l *spanLog) end(i int) {
	now := time.Since(l.t0)
	l.mu.Lock()
	l.spans[i].iv.End = now
	l.mu.Unlock()
}

// durations returns the length of every span named name, in ms.
func (l *spanLog) durations(name string) []float64 {
	var out []float64
	for _, s := range l.spans {
		if s.Name == name {
			out = append(out, ms(s.iv.End-s.iv.Start))
		}
	}
	return out
}

// childTotal sums the durations of the children named name of every span
// named parent, in ms, one entry per parent span.
func (l *spanLog) childTotal(parent, name string) []float64 {
	var out []float64
	for i, p := range l.spans {
		if p.Name != parent {
			continue
		}
		var total time.Duration
		for _, c := range l.spans[i+1:] {
			if c.Parent == i && c.Name == name {
				total += c.iv.End - c.iv.Start
			}
		}
		out = append(out, ms(total))
	}
	return out
}

// selfTimes returns the self time of every span named name, in ms.
func (l *spanLog) selfTimes(name string) []float64 {
	var out []float64
	for i, p := range l.spans {
		if p.Name != name {
			continue
		}
		var children []interval
		for _, c := range l.spans[i+1:] {
			if c.Parent == i {
				children = append(children, c.iv)
			}
		}
		out = append(out, ms(selfTime(p.iv, children)))
	}
	return out
}

// probe is the benchmark's funcmech.Probe: each mechanism phase becomes a
// child span of the fit it belongs to, and the kernel's compute tier is
// remembered.
type probe struct {
	log    *spanLog
	parent int
	tier   *string
}

func (p probe) Phase(name string) func() {
	i := p.log.start(name, p.parent)
	return func() { p.log.end(i) }
}

func (p probe) PhaseTier(name, tier string) func() {
	*p.tier = tier
	return p.Phase(name)
}

// timedGovernor wraps the serving layer's governor so time blocked in
// Acquire becomes a child span of the fit.
type timedGovernor struct {
	g      *serve.Governor
	log    *spanLog
	parent int
}

func (t timedGovernor) Acquire(want int) (int, func()) {
	i := t.log.start("governor", t.parent)
	granted, release := t.g.Acquire(want)
	t.log.end(i)
	return granted, release
}

// layerRun is the outcome of the in-process part of a traced run.
type layerRun struct {
	spans       *spanLog
	tier        string
	frameBytes  int
	frameRows   int
	kernelFlops float64 // n·d(d+1) summed over fits
	allocMB     []float64
	releases    int
	trimmed     int
}

// Sizing of the in-process part.
const (
	replayRounds     = 2  // passes over the task mix, for fits and refits each
	replayWALAppends = 64 // ingest-sequence appends, besides one charge per release
	censusBatch      = 1024
)

// replayLayers calls each layer's public entry point in handler order, on
// the workload's own rows, inside the benchmark's spans: fmbin.Decode →
// stream.IngestFlat (and funcmech.Accumulator.AddFlat alone) → wal.Append
// for ingests; wal.Append → funcmech.FitTask (governor, kernel, solve,
// noise) for fits; wal.Append → stream.Merged → FitTaskFromAccumulator for
// refits. Every workload runs every layer, so every per-layer metric is
// measured on every workload; the served traces say which of them the
// workload's requests reach.
func replayLayers(p *plan, walDir string) (*layerRun, error) {
	run := &layerRun{spans: newSpanLog()}
	log := run.spans
	batches, flat := p.replayInputs()

	st, err := stream.New("replay", stream.Config{Schema: p.schema, Intercept: true, BinarizeThreshold: &p.threshold})
	if err != nil {
		return nil, err
	}
	acc, err := p.accumulator()
	if err != nil {
		return nil, err
	}
	wlog, err := wal.Open(walDir, wal.Options{Fsync: true})
	if err != nil {
		return nil, err
	}
	defer wlog.Close()
	appendWAL := func(ev wal.Event) error {
		i := log.start("wal.append", -1)
		_, err := wlog.Append(ev)
		log.end(i)
		return err
	}

	var buf []float64
	for b, batch := range batches {
		frame, err := fmbin.Encode(nil, batch, p.width(), true)
		if err != nil {
			return nil, err
		}
		run.frameBytes += len(frame)
		run.frameRows += len(batch) / p.width()
		i := log.start("fmbin.decode", -1)
		buf, _, err = fmbin.Decode(frame, buf[:0])
		log.end(i)
		if err != nil {
			return nil, err
		}
		i = log.start("stream.ingest", -1)
		_, err = st.IngestFlat(buf)
		log.end(i)
		if err != nil {
			return nil, err
		}
		i = log.start("funcmech.addflat", -1)
		_, err = acc.AddFlat(buf)
		log.end(i)
		if err != nil {
			return nil, err
		}
		if b < replayWALAppends {
			records, n := st.Counts()
			if err := appendWAL(wal.Event{Kind: wal.EventIngest, Ref: "replay", Seq: records, Batches: n}); err != nil {
				return nil, err
			}
		}
	}

	ds := datasetOf(p.schema, flat)
	gov := serve.NewGovernor(0)
	mix := newReleaseMix(rand.New(rand.NewSource(p.seed)))
	d := float64(p.width()) // features + intercept
	for r := 0; r < replayRounds*len(taskBlock); r++ {
		model, eps := mix.next()
		seed := funcmech.WithSeed(int64(r))

		if err := appendWAL(wal.Event{Kind: wal.EventCharge, Tenant: tenantName, Op: wal.OpFit, Ref: datasetName, Epsilon: eps}); err != nil {
			return nil, err
		}
		opts := []funcmech.Option{seed, funcmech.WithIntercept()}
		if model == "logistic" {
			opts = append(opts, funcmech.WithBinarizeThreshold(p.threshold))
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		fit := log.start("funcmech.fit", -1)
		opts = append(opts,
			funcmech.WithProbe(probe{log: log, parent: fit, tier: &run.tier}),
			funcmech.WithGovernor(timedGovernor{g: gov, log: log, parent: fit}))
		_, rep, err := funcmech.FitTask(ds, model, eps, opts...)
		log.end(fit)
		runtime.ReadMemStats(&m1)
		if err != nil {
			return nil, fmt.Errorf("in-process %s fit: %w", model, err)
		}
		run.allocMB = append(run.allocMB, float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20))
		run.kernelFlops += float64(ds.Len()) * d * (d + 1)
		run.count(rep)

		if err := appendWAL(wal.Event{Kind: wal.EventCharge, Tenant: tenantName, Op: wal.OpRefit, Ref: "replay", Epsilon: eps}); err != nil {
			return nil, err
		}
		i := log.start("stream.merged", -1)
		merged := st.Merged()
		log.end(i)
		refit := log.start("funcmech.refit", -1)
		_, rep, err = funcmech.FitTaskFromAccumulator(merged, model, eps, seed,
			funcmech.WithProbe(probe{log: log, parent: refit, tier: new(string)}))
		log.end(refit)
		if err != nil {
			return nil, fmt.Errorf("in-process %s refit: %w", model, err)
		}
		run.count(rep)
	}
	return run, nil
}

func (r *layerRun) count(rep *funcmech.Report) {
	r.releases++
	if rep.Trimmed > 0 {
		r.trimmed++
	}
}

// replayInputs returns the workload's rows as ingest batches and as one
// flat table: the stream's batch pool, or the census rows cut into
// 1024-record batches.
func (p *plan) replayInputs() (batches [][]float64, flat []float64) {
	if p.flat != nil {
		step := censusBatch * p.width()
		for lo := 0; lo < len(p.flat); lo += step {
			batches = append(batches, p.flat[lo:min(lo+step, len(p.flat))])
		}
		return batches, p.flat
	}
	for _, b := range p.pool {
		flat = append(flat, b...)
	}
	return p.pool, flat
}

// metrics reduces the in-process spans to the per-layer metrics.
func (r *layerRun) metrics(out map[string]metric) {
	l := r.spans
	// A fit's self time — its wall time minus the governor wait and the
	// kernel, solve and noise phases — is the preparation: copying and
	// normalizing the dataset and validating it.
	prepare := l.selfTimes("funcmech.fit")
	kernel := l.childTotal("funcmech.fit", "kernel")
	solve := append(l.childTotal("funcmech.fit", "solve"), l.childTotal("funcmech.refit", "solve")...)
	perturb := append(l.childTotal("funcmech.fit", "noise"), l.childTotal("funcmech.refit", "noise")...)
	var kernelSec float64
	for _, k := range kernel {
		kernelSec += k / 1e3
	}
	wals := l.durations("wal.append")

	out["funcmech.prepare_ms"] = metric{mean(prepare), "ms"}
	out["funcmech.fit_alloc_mb"] = metric{mean(r.allocMB), "MB"}
	out["core.kernel_ms"] = metric{mean(kernel), "ms"}
	out["core.kernel_gflops"] = metric{r.kernelFlops / kernelSec / 1e9, "GFLOP/s"}
	out["linalg.solve_ms"] = metric{mean(solve), "ms"}
	out["noise.perturb_ms"] = metric{mean(perturb), "ms"}
	out["core.trim_ratio"] = metric{float64(r.trimmed) / float64(r.releases), "ratio"}
	out["fmbin.decode_ms"] = metric{mean(l.durations("fmbin.decode")), "ms"}
	out["fmbin.bytes_per_record"] = metric{float64(r.frameBytes) / float64(r.frameRows), "B"}
	out["funcmech.addflat_ms"] = metric{mean(l.durations("funcmech.addflat")), "ms"}
	out["stream.ingest_ms"] = metric{mean(l.durations("stream.ingest")), "ms"}
	out["stream.merged_ms"] = metric{mean(l.durations("stream.merged")), "ms"}
	out["wal.append_p50_ms"] = metric{quantile(wals, 0.5), "ms"}
	out["wal.append_p90_ms"] = metric{quantile(wals, 0.9), "ms"}
}

// datasetOf builds a dataset from flat rows of features + target, exactly
// as the server's binary registration path does.
func datasetOf(s funcmech.Schema, flat []float64) *funcmech.Dataset {
	w := len(s.Features) + 1
	ds := funcmech.NewDataset(s)
	ds.Grow(len(flat) / w)
	for i := 0; i+w <= len(flat); i += w {
		ds.Append(flat[i:i+w-1], flat[i+w-1])
	}
	return ds
}
