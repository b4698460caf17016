package main

import (
	"fmt"
	"math"
	"sort"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSpec is one metric the benchmark reports, as BENCHMARK.json
// declares it.
type metricSpec struct{ Name, Unit string }

// endToEndMetrics are reported by every untraced run. p50_ms is the median
// latency of the workload's headline request class (fit, fmbin ingest or
// refit); the p90 of every class is printed in the summary but not gated,
// because on a shared host it follows disk and CPU contention from other
// tenants more than the program (see README.md).
var endToEndMetrics = []metricSpec{
	{"setup_s", "s"},
	{"p50_ms", "ms"},
	{"server_cpu_ms_per_op", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayerMetrics are reported by every traced run: the serve.*, wal
// fsync and obs.* metrics from the server's spans over the traced half of
// the window, the rest from the in-process replay of each layer.
var perLayerMetrics = []metricSpec{
	{"serve.handler_ms", "ms"},
	{"serve.queue_wait_ms", "ms"},
	{"serve.governor_wait_ms", "ms"},
	{"serve.unattributed_ms", "ms"},
	{"serve.wal_fsync_p50_ms", "ms"},
	{"serve.wal_fsync_p90_ms", "ms"},
	{"wal.appends_per_op", "count"},
	{"obs.trace_loss_ratio", "ratio"},
	{"obs.trace_overhead_pct", "%"},
	{"funcmech.prepare_ms", "ms"},
	{"funcmech.fit_alloc_mb", "MB"},
	{"core.kernel_ms", "ms"},
	{"core.kernel_gflops", "GFLOP/s"},
	{"linalg.solve_ms", "ms"},
	{"noise.perturb_ms", "ms"},
	{"core.trim_ratio", "ratio"},
	{"fmbin.decode_ms", "ms"},
	{"fmbin.bytes_per_record", "B"},
	{"funcmech.addflat_ms", "ms"},
	{"stream.ingest_ms", "ms"},
	{"stream.merged_ms", "ms"},
	{"wal.append_p50_ms", "ms"},
	{"wal.append_p90_ms", "ms"},
	{"check.bit_mismatch_ratio", "ratio"},
	{"bench.sched_lag_p90_ms", "ms"},
}

// checkReported verifies that got holds exactly the declared metrics, each
// with its declared unit and a finite value.
func checkReported(got map[string]metric, want []metricSpec) error {
	if len(got) != len(want) {
		names := make([]string, 0, len(got))
		for k := range got {
			names = append(names, k)
		}
		sort.Strings(names)
		return fmt.Errorf("reported %d metrics %v, want %d", len(got), names, len(want))
	}
	for _, s := range want {
		m, ok := got[s.Name]
		switch {
		case !ok:
			return fmt.Errorf("metric %s not reported", s.Name)
		case m.Unit != s.Unit:
			return fmt.Errorf("metric %s in %s, want %s", s.Name, m.Unit, s.Unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			return fmt.Errorf("metric %s has no value (%v)", s.Name, m.Value)
		}
	}
	return nil
}
