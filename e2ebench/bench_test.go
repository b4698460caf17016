package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"
)

// TestPlanDeterministic pins that the seed alone fixes every input: the
// same seed yields byte-identical request bodies and the same send
// schedule, and another seed yields different inputs.
func TestPlanDeterministic(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			a, err := newPlan(w, 7, 2*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			b, err := newPlan(w, 7, 2*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a.requests(), b.requests()) {
				t.Fatal("same seed produced different requests or schedules")
			}
			if !reflect.DeepEqual(a.frame, b.frame) || !reflect.DeepEqual(a.streamBody, b.streamBody) {
				t.Fatal("same seed produced different set-up bodies")
			}
			c, err := newPlan(w, 8, 2*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			if reflect.DeepEqual(a.requests(), c.requests()) {
				t.Fatal("different seeds produced identical requests")
			}
		})
	}
}

// requests lists every request of the plan in send order.
func (p *plan) requests() []request {
	var all []request
	for _, rs := range [][]request{p.prefill, p.warmup, p.window, p.post} {
		all = append(all, rs...)
	}
	return all
}

// TestScheduleShape checks each server's window is sorted and spans its
// share of the run, and that a run of BENCHMARK.json's run_seconds, split
// across the default three servers, sends its headline class often enough
// for a p90 with ten samples beyond it.
func TestScheduleShape(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		RunSeconds int `json:"run_seconds"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	const servers = 3
	window := time.Duration(spec.RunSeconds) * time.Second / servers
	for _, w := range workloads {
		p, err := newPlan(w, 1, window)
		if err != nil {
			t.Fatal(err)
		}
		var headline int
		for i, r := range p.window {
			if i > 0 && r.At < p.window[i-1].At {
				t.Fatalf("%s: request %d scheduled before its predecessor", w.name, i)
			}
			if r.At >= window {
				t.Fatalf("%s: request %d scheduled after the window", w.name, i)
			}
			if r.Kind == w.headline {
				headline++
			}
		}
		if headline*servers < 10*minBeyondP90 {
			t.Fatalf("%s: %d headline requests per run, want ≥ %d", w.name, headline*servers, 10*minBeyondP90)
		}
	}
}

func TestSelfTime(t *testing.T) {
	ms := func(a, b int) interval {
		return interval{time.Duration(a) * time.Millisecond, time.Duration(b) * time.Millisecond}
	}
	cases := []struct {
		name     string
		children []interval
		want     time.Duration
	}{
		{"no children", nil, 100 * time.Millisecond},
		{"disjoint", []interval{ms(10, 20), ms(30, 50)}, 70 * time.Millisecond},
		{"overlapping counted once", []interval{ms(10, 40), ms(30, 60)}, 50 * time.Millisecond},
		{"nested counted once", []interval{ms(10, 60), ms(20, 30)}, 50 * time.Millisecond},
		{"clipped to parent", []interval{ms(-20, 10), ms(90, 150)}, 80 * time.Millisecond},
		{"outside parent", []interval{ms(200, 300)}, 100 * time.Millisecond},
		{"covering parent", []interval{ms(-1, 101)}, 0},
		{"unsorted", []interval{ms(70, 80), ms(0, 10), ms(5, 15)}, 75 * time.Millisecond},
	}
	for _, c := range cases {
		if got := selfTime(ms(0, 100), c.children); got != c.want {
			t.Errorf("%s: selfTime = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestSpanLogSelfTimes checks the in-process attribution: a fit's self
// time excludes its own children only.
func TestSpanLogSelfTimes(t *testing.T) {
	l := &spanLog{}
	add := func(name string, parent, a, b int) {
		l.spans = append(l.spans, loggedSpan{Name: name, Parent: parent,
			iv: interval{time.Duration(a) * time.Millisecond, time.Duration(b) * time.Millisecond}})
	}
	add("funcmech.fit", -1, 0, 50)  // 0
	add("governor", 0, 0, 5)        // 1
	add("kernel", 0, 5, 25)         // 2
	add("solve", 0, 30, 35)         // 3
	add("funcmech.fit", -1, 60, 70) // 4
	add("kernel", 4, 60, 62)        // 5
	add("kernel", -1, 0, 70)        // 6: not a child of either fit

	if got, want := l.selfTimes("funcmech.fit"), []float64{20, 8}; !reflect.DeepEqual(got, want) {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}
	if got, want := l.childTotal("funcmech.fit", "kernel"), []float64{20, 2}; !reflect.DeepEqual(got, want) {
		t.Fatalf("childTotal = %v, want %v", got, want)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for q, want := range map[float64]float64{0: 1, 0.5: 3, 0.9: 4.6, 1: 5} {
		if got := quantile(xs, q); math.Abs(got-want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", q, got, want)
		}
	}
}

// TestMetricNames checks every metric name uses only [A-Za-z0-9_.-], and
// that the metrics the program reports are exactly those BENCHMARK.json
// declares, with the same units.
func TestMetricNames(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricSpec `json:"end_to_end"`
		PerLayer  []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, list := range [][]metricSpec{endToEndMetrics, perLayerMetrics} {
		for _, m := range list {
			if !name.MatchString(m.Name) {
				t.Errorf("metric name %q outside [A-Za-z0-9_.-]", m.Name)
			}
		}
	}
	if !reflect.DeepEqual(spec.EndToEnd, endToEndMetrics) {
		t.Errorf("BENCHMARK.json end_to_end = %v, program reports %v", spec.EndToEnd, endToEndMetrics)
	}
	if !reflect.DeepEqual(spec.PerLayer, perLayerMetrics) {
		t.Errorf("BENCHMARK.json per_layer = %v, program reports %v", spec.PerLayer, perLayerMetrics)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	for i, w := range workloads {
		if i >= len(names) || names[i] != w.name {
			t.Errorf("BENCHMARK.json workloads = %v, program runs %s at %d", names, w.name, i)
		}
	}
}
