// Command e2ebench is the end-to-end benchmark of fmserve: it boots a fresh
// server per run, generates every input from the workload seed, drives one
// workload open-loop over HTTP, checks every reply, and prints one JSON
// result line. Run it through run.sh, which builds fmserve and this program
// from the checkout first:
//
//	bash e2ebench/run.sh --workload fit_census --seed 1 --seconds 25 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics; with --trace 1 it
// holds the per-layer metrics of a separate traced run. See README.md.
package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"funcmech/internal/core"
	"funcmech/internal/fmbin"
)

// config is one invocation's settings.
type config struct {
	workload *workload
	seed     int64
	seconds  int
	trace    bool
	fmserve  string // path to the fmserve binary
	commit   string
}

// Run shape. The benchmark runs from the checkout root and keeps all its
// state under buildDir.
const (
	buildDir = ".bench_build"
	// servers is how many freshly booted servers share an untraced run's
	// window; setup_s is the median of their set-ups.
	servers = 3
)

// conns is the number of client connections and open-loop workers: one
// per CPU, so the load generator never outnumbers the cores it shares with
// the server.
var conns = runtime.NumCPU()

// Run validity thresholds.
const (
	// maxSchedLagMS marks a run invalid when the generator's send lateness
	// at p90 exceeds it: both connections were then still busy at most
	// send times, so the server fell behind the offered rate and the run
	// measured a growing backlog rather than a steady state.
	maxSchedLagMS = 10
	// minBeyondP90 is the number of headline samples a run needs beyond
	// its p90 for that percentile to be reported.
	minBeyondP90 = 10
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	cfg, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %v\n", err)
		return 2
	}
	res, err := benchmark(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %v\n", err)
		return 1
	}
	line, err := res.line()
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %v\n", err)
		return 1
	}
	res.summary(stderr)
	if err := res.save(filepath.Join(buildDir, "results")); err != nil {
		fmt.Fprintf(stderr, "e2ebench: saving result: %v\n", err)
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

func parseFlags(args []string, stderr io.Writer) (*config, error) {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name  = fs.String("workload", "", "workload to run: fit_census, ingest_telemetry or refit_wide")
		seed  = fs.Int64("seed", 1, "workload seed; the same seed gives the same inputs and schedule")
		secs  = fs.Int("seconds", 25, "length of the timed window")
		trace = fs.Int("trace", 0, "1 = traced run reporting per-layer metrics; 0 = end-to-end metrics")
		cfg   = &config{}
	)
	fs.StringVar(&cfg.fmserve, "fmserve", "", "path to the fmserve binary")
	fs.StringVar(&cfg.commit, "commit", "unknown", "commit being measured, for provenance")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	w, ok := lookupWorkload(*name)
	switch {
	case !ok:
		return nil, fmt.Errorf("unknown workload %q", *name)
	case *secs < 1:
		return nil, fmt.Errorf("--seconds must be positive")
	case *trace != 0 && *trace != 1:
		return nil, fmt.Errorf("--trace must be 0 or 1")
	case cfg.fmserve == "":
		return nil, fmt.Errorf("--fmserve is required")
	}
	cfg.workload, cfg.seed, cfg.seconds, cfg.trace = w, *seed, *secs, *trace == 1
	return cfg, nil
}

// result is one run's outcome.
type result struct {
	cfg        *config
	attempted  int
	failed     int
	problems   []string
	metrics    map[string]metric // the reported set: end-to-end or per-layer
	extra      map[string]metric // every other measurement, for the log and the result file
	provenance map[string]string
	invalid    []string              // why the run is invalid; empty when valid
	latencies  [numOpKinds][]float64 // ms, per request class, for the result file
}

// benchmark runs the workload. An untraced run splits its window across
// `servers` freshly booted servers, each set up from scratch, and pools
// what they measure, so neither one server's state nor one set-up decides
// the result. A traced run uses one server and then replays the layers in
// process.
func benchmark(cfg *config) (*result, error) {
	// Every request and poll gives up at the deadline, so even a hung
	// server ends the run well inside its time limit.
	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(cfg.seconds)*time.Second+2*time.Minute)
	defer cancel()
	work := filepath.Join(buildDir, "work", strconv.Itoa(os.Getpid()))
	defer os.RemoveAll(work)

	reps := servers
	if cfg.trace {
		reps = 1
	}
	window := time.Duration(cfg.seconds) * time.Second / time.Duration(reps)
	res := &result{cfg: cfg, metrics: map[string]metric{}, extra: map[string]metric{}}
	var (
		segs          []*segment
		setups, rss   []float64
		lags          []float64
		cpu           time.Duration
		completed     int
		steal, ticks  int64
		checked, diff int
	)
	for rep := 0; rep < reps; rep++ {
		seg, err := runSegment(ctx, cfg, window, filepath.Join(work, "server"))
		if err != nil {
			return nil, err
		}
		// Reference fits run in process once the server is gone.
		if err := seg.ledger.checkSamples(); err != nil {
			return nil, err
		}
		segs = append(segs, seg)
		l := seg.ledger
		res.attempted += l.attempted
		res.failed += l.failed
		res.problems = append(res.problems, l.problems...)
		checked, diff = checked+l.refChecked, diff+l.refBitDiff
		setups = append(setups, seg.setup.Seconds())
		rss = append(rss, seg.rss)
		lags = append(lags, seg.lags...)
		cpu += seg.cpu
		completed += seg.completed
		steal, ticks = steal+seg.steal, ticks+seg.ticks
		for k := range seg.lat {
			res.latencies[k] = append(res.latencies[k], seg.lat[k]...)
		}
	}

	headline := cfg.workload.headline
	lat := res.latencies
	for k := opKind(0); k < numOpKinds; k++ {
		if len(lat[k]) > 0 {
			res.extra[k.String()+"_p50_ms"] = metric{quantile(lat[k], 0.5), "ms"}
			res.extra[k.String()+"_p90_ms"] = metric{quantile(lat[k], 0.9), "ms"}
			res.extra[k.String()+"_count"] = metric{float64(len(lat[k])), "count"}
		}
	}
	lagP90 := quantile(lags, 0.9)
	bitRatio := 0.0
	if checked > 0 {
		bitRatio = float64(diff) / float64(checked)
	}
	if ticks > 0 {
		res.extra["host.steal_pct"] = metric{100 * float64(steal) / float64(ticks), "%"}
	}
	res.extra["failed_ratio"] = metric{float64(res.failed) / float64(res.attempted), "ratio"}
	res.extra["check.samples"] = metric{float64(checked), "count"}
	if lagP90 > maxSchedLagMS {
		res.invalidate("generator lag p90 %.2f ms exceeds %d ms", lagP90, maxSchedLagMS)
	}

	last := segs[len(segs)-1]
	observedTier := ""
	if !cfg.trace {
		if n := len(lat[headline]); n < 10*minBeyondP90 {
			res.invalidate("%d %s samples leave fewer than %d beyond p90", n, headline, minBeyondP90)
		}
		res.metrics["setup_s"] = metric{quantile(setups, 0.5), "s"}
		res.metrics["p50_ms"] = metric{quantile(lat[headline], 0.5), "ms"}
		res.metrics["server_cpu_ms_per_op"] = metric{ms(cpu) / float64(completed), "ms"}
		res.metrics["peak_rss_mb"] = metric{quantile(rss, 0.5), "MB"}
		res.extra["check.bit_mismatch_ratio"] = metric{bitRatio, "ratio"}
		res.extra["bench.sched_lag_p90_ms"] = metric{lagP90, "ms"}
	} else {
		sl := last.harvest.layers(last.ids)
		m := res.metrics
		m["serve.handler_ms"] = metric{mean(sl.handler), "ms"}
		m["serve.queue_wait_ms"] = metric{mean(sl.queue), "ms"}
		m["serve.governor_wait_ms"] = metric{mean(sl.governor), "ms"}
		m["serve.unattributed_ms"] = metric{mean(sl.self), "ms"}
		m["serve.wal_fsync_p50_ms"] = metric{quantile(sl.walFsync, 0.5), "ms"}
		m["serve.wal_fsync_p90_ms"] = metric{quantile(sl.walFsync, 0.9), "ms"}
		m["wal.appends_per_op"] = metric{float64(len(sl.walFsync)) / float64(sl.ops), "count"}
		m["obs.trace_loss_ratio"] = metric{float64(sl.lost) / float64(len(last.ids)), "ratio"}
		untraced, traced := quantile(last.halves[0], 0.5), quantile(last.halves[1], 0.5)
		m["obs.trace_overhead_pct"] = metric{100 * (traced - untraced) / untraced, "%"}
		m["check.bit_mismatch_ratio"] = metric{bitRatio, "ratio"}
		m["bench.sched_lag_p90_ms"] = metric{lagP90, "ms"}
		res.extra["traced_p50_ms"] = metric{traced, "ms"}
		lr, err := replayLayers(last.plan, filepath.Join(work, "replay-wal"))
		if err != nil {
			return nil, err
		}
		lr.metrics(m)
		observedTier = lr.tier
	}
	res.provenance = provenance(cfg, last.plan, observedTier)
	return res, nil
}

// segment is what one server measured: its set-up, its share of the timed
// window, and the checked replies.
type segment struct {
	plan      *plan
	ledger    *ledger
	setup     time.Duration
	lat       [numOpKinds][]float64 // ms, checked replies only
	halves    [2][]float64          // headline ms in the untraced and traced half (traced runs)
	lags      []float64             // ms
	cpu       time.Duration         // server CPU over the window
	completed int                   // checked replies in the window
	rss       float64               // server VmHWM, MB
	steal     int64                 // host steal ticks over the window
	ticks     int64                 // host CPU ticks over the window
	harvest   *harvester            // traced runs: the server's spans
	ids       []string              // traced runs: request ids of the traced half
}

// runSegment boots a fresh fmserve, generates the plan and sets the server
// up (together timed as set-up), drives the window open-loop, checks every
// reply and the server's totals, and stops the server.
func runSegment(ctx context.Context, cfg *config, window time.Duration, dir string) (seg *segment, err error) {
	t0 := time.Now()
	srv, err := startServer(cfg.fmserve, dir)
	if err != nil {
		return nil, err
	}
	c := newClient(srv.base, conns)
	defer func() {
		c.close()
		if stopErr := srv.stop(); err == nil && stopErr != nil {
			seg, err = nil, stopErr
		}
	}()
	p, err := newPlan(cfg.workload, cfg.seed, window)
	if err != nil {
		return nil, err
	}
	seg = &segment{plan: p, ledger: newLedger(p)}
	l := seg.ledger
	if err := setup(ctx, c, p, l); err != nil {
		return nil, err
	}
	seg.setup = time.Since(t0)

	// A traced run sends X-Request-Id on the second half of the window
	// and harvests the server's spans meanwhile; the first half is its
	// untraced baseline.
	half := window / 2
	traced := func(i int) string {
		if cfg.trace && p.window[i].At >= half {
			return fmt.Sprintf("e2e-%d-%d", cfg.seed, i)
		}
		return ""
	}
	cpu0, err := srv.cpuTime()
	if err != nil {
		return nil, err
	}
	steal0, ticks0 := hostSteal()
	start := time.Now().Add(20 * time.Millisecond)
	stopHarvest := func() error { return nil }
	if cfg.trace {
		h := newHarvester(newClient(srv.base, 1))
		defer h.c.close()
		stopHarvest = h.start(ctx, start.Add(half))
		defer stopHarvest()
		seg.harvest = h
	}
	outs := c.openLoop(ctx, p.window, start, traced)
	cpu1, err := srv.cpuTime()
	if err != nil {
		return nil, err
	}
	steal1, ticks1 := hostSteal()
	seg.cpu, seg.steal, seg.ticks = cpu1-cpu0, steal1-steal0, ticks1-ticks0
	if err := stopHarvest(); err != nil {
		return nil, fmt.Errorf("harvesting traces: %w", err)
	}

	headline := cfg.workload.headline
	for i := range outs {
		r, o := &p.window[i], &outs[i]
		seg.lags = append(seg.lags, ms(o.Lag))
		id := traced(i)
		if id != "" {
			seg.ids = append(seg.ids, id)
		}
		if !l.record(r, o) {
			continue
		}
		seg.completed++
		seg.lat[r.Kind] = append(seg.lat[r.Kind], ms(o.Latency))
		if r.Kind == headline {
			h := 0
			if id != "" {
				h = 1
			}
			seg.halves[h] = append(seg.halves[h], ms(o.Latency))
		}
	}
	for i, o := range c.sequential(ctx, p.post) {
		l.record(&p.post[i], &o)
	}
	if err := l.checkTotals(ctx, c); err != nil {
		return nil, err
	}
	if seg.rss, err = srv.peakRSSMB(); err != nil {
		return nil, err
	}
	return seg, nil
}

// setup creates the tenant and the workload's dataset or stream, pre-fills
// the stream and sends the warm-up requests.
func setup(ctx context.Context, c *client, p *plan, l *ledger) error {
	tenant, _ := json.Marshal(map[string]any{"name": tenantName, "budget": tenantBudget})
	if err := c.create(ctx, "/v1/tenants", "application/json", tenant); err != nil {
		return err
	}
	if p.frame != nil {
		if err := c.create(ctx, p.datasetPath, fmbin.ContentType, p.frame); err != nil {
			return err
		}
	}
	if p.streamBody != nil {
		if err := c.create(ctx, "/v1/streams", "application/json", p.streamBody); err != nil {
			return err
		}
	}
	for i, o := range c.openLoop(ctx, p.prefill, time.Now(), func(int) string { return "" }) {
		l.record(&p.prefill[i], &o)
	}
	for i, o := range c.sequential(ctx, p.warmup) {
		l.record(&p.warmup[i], &o)
	}
	if l.failed > 0 {
		return fmt.Errorf("set-up requests failed: %s", strings.Join(l.problems, "; "))
	}
	return nil
}

func (r *result) invalidate(format string, args ...any) {
	r.invalid = append(r.invalid, fmt.Sprintf(format, args...))
}

// line renders the one-line JSON result.
func (r *result) line() ([]byte, error) {
	want := endToEndMetrics
	if r.cfg.trace {
		want = perLayerMetrics
	}
	if err := checkReported(r.metrics, want); err != nil {
		return nil, err
	}
	return json.Marshal(map[string]any{
		"correct":   r.failed == 0,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   r.metrics,
	})
}

// summary prints every measurement by name with its unit, then provenance,
// validity and the first failures.
func (r *result) summary(w io.Writer) {
	fmt.Fprintf(w, "e2ebench %s seed=%d seconds=%d trace=%v\n", r.cfg.workload.name, r.cfg.seed, r.cfg.seconds, r.cfg.trace)
	all := map[string]metric{}
	for k, v := range r.extra {
		all[k] = v
	}
	for k, v := range r.metrics {
		all[k] = v
	}
	for _, k := range sortedKeys(all) {
		fmt.Fprintf(w, "  %-28s %14.4f %s\n", k, all[k].Value, all[k].Unit)
	}
	for _, k := range sortedKeys(r.provenance) {
		fmt.Fprintf(w, "  %-28s %s\n", k, r.provenance[k])
	}
	if len(r.invalid) == 0 {
		fmt.Fprintf(w, "  run valid\n")
	}
	for _, why := range r.invalid {
		fmt.Fprintf(w, "  RUN INVALID: %s\n", why)
	}
	for _, p := range r.problems {
		fmt.Fprintf(w, "  FAILED: %s\n", p)
	}
}

// save writes the full result, provenance included, under dir.
func (r *result) save(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	latencies := map[string][]float64{}
	for k := opKind(0); k < numOpKinds; k++ {
		latencies[k.String()] = r.latencies[k]
	}
	raw, err := json.MarshalIndent(map[string]any{
		"workload":     r.cfg.workload.name,
		"seed":         r.cfg.seed,
		"seconds":      r.cfg.seconds,
		"trace":        r.cfg.trace,
		"correct":      r.failed == 0,
		"attempted":    r.attempted,
		"failed":       r.failed,
		"problems":     r.problems,
		"valid":        len(r.invalid) == 0,
		"invalid":      r.invalid,
		"metrics":      r.metrics,
		"extra":        finite(r.extra),
		"provenance":   r.provenance,
		"latencies_ms": latencies,
	}, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", r.cfg.workload.name, r.cfg.seed, btoi(r.cfg.trace))
	return os.WriteFile(filepath.Join(dir, name), raw, 0o644)
}

func finite(ms map[string]metric) map[string]metric {
	out := map[string]metric{}
	for k, m := range ms {
		if !math.IsNaN(m.Value) && !math.IsInf(m.Value, 0) {
			out[k] = m
		}
	}
	return out
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// provenance records where and on what a result was measured.
func provenance(cfg *config, p *plan, observedTier string) map[string]string {
	prov := map[string]string{
		"cpu_model":     cpuModel(),
		"nproc":         strconv.Itoa(runtime.NumCPU()),
		"gomaxprocs":    strconv.Itoa(runtime.GOMAXPROCS(0)),
		"go_version":    runtime.Version(),
		"kernel_tier":   core.KernelTier(p.width(), false),
		"commit":        cfg.commit,
		"source_sha256": sourceDigest("."),
		"workload_seed": strconv.FormatInt(cfg.seed, 10),
		"client_conns":  strconv.Itoa(conns),
	}
	if observedTier != "" {
		prov["kernel_tier_observed"] = observedTier
	}
	return prov
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest hashes the Go sources and assembly of the checkout (hidden
// directories such as the build cache skipped), identifying the code
// measured where no git metadata is available.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || strings.HasSuffix(path, ".s") || d.Name() == "go.mod") {
			return nil
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		fmt.Fprintf(h, "%s %d\n", rel, len(raw))
		h.Write(raw)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}
