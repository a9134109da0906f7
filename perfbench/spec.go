package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"regexp"
)

// metricSpec is one metric the benchmark reports: its unit, which
// direction is better and — for end-to-end metrics — the share of the
// baseline median by which it may worsen before a change counts as a
// regression.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the system sees, printed by every
// measured run (--trace 0) of every workload.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"events_per_s", "events/s", "higher", 0.25},
	{"goodput_eps", "events/s", "higher", 0.25},
	{"p50_us", "us", "lower", 0.25},
	{"p90_us", "us", "lower", 0.25},
	{"alloc_bytes_per_event", "B", "lower", 0.1},
	{"live_heap_mb", "MB", "lower", 0.1},
}

// perLayer are the per-layer metrics, printed by every traced run
// (--trace 1) of every workload. A layer the workload does not run
// reports 0.
var perLayer = []metricSpec{
	{Name: "wall_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "residual_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "ensemble.train_s", Unit: "s", Better: "lower"},
	{Name: "partition.generate_us", Unit: "us", Better: "lower"},
	{Name: "partition.solve_us", Unit: "us", Better: "lower"},
	{Name: "admit.decide_ns", Unit: "ns", Better: "lower"},
	{Name: "admit.shed_ratio", Unit: "fraction", Better: "lower"},
	{Name: "admit.alert_shed_ratio", Unit: "fraction", Better: "lower"},
	{Name: "serve.submit_ns", Unit: "ns", Better: "lower"},
	{Name: "serve.capacity_eps", Unit: "events/s", Better: "higher"},
	{Name: "serve.overload_goodput_eps", Unit: "events/s", Better: "higher"},
	{Name: "serve.queue_wait_p50_us", Unit: "us", Better: "lower"},
	{Name: "serve.queue_wait_p99_us", Unit: "us", Better: "lower"},
	{Name: "xsystem.walk_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "xsystem.walk_self_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "xsystem.walk_allocs_per_event", Unit: "count", Better: "lower"},
	{Name: "dwt.calls_per_event", Unit: "count", Better: "lower"},
	{Name: "dwt.ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "stats.calls_per_event", Unit: "count", Better: "lower"},
	{Name: "stats.ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "svm.calls_per_event", Unit: "count", Better: "lower"},
	{Name: "svm.ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "telemetry.spans_per_event", Unit: "count", Better: "lower"},
	{Name: "telemetry.records_per_event", Unit: "count", Better: "lower"},
	{Name: "telemetry.ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "faults.resends_per_event", Unit: "count", Better: "lower"},
	{Name: "faults.lost_per_event", Unit: "count", Better: "lower"},
	{Name: "faults.send_ns", Unit: "ns", Better: "lower"},
	{Name: "adaptive.evals_per_event", Unit: "count", Better: "lower"},
	{Name: "adaptive.repricings_per_event", Unit: "count", Better: "lower"},
	{Name: "adaptive.reprice_p50_us", Unit: "us", Better: "lower"},
	{Name: "adaptive.reprice_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "adaptive.useful_ratio", Unit: "fraction", Better: "higher"},
	{Name: "adaptive.ladder_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "recovery.journal_bytes_per_event", Unit: "B", Better: "lower"},
	{Name: "recovery.checkpoint_us", Unit: "us", Better: "lower"},
	{Name: "recovery.checkpoint_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "runtime.gc_per_kevent", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_cpu_fraction", Unit: "fraction", Better: "lower"},
	{Name: "loadgen.lag_p99_us", Unit: "us", Better: "lower"},
	{Name: "tail.p99_us", Unit: "us", Better: "lower"},
	{Name: "tail.p99_beyond", Unit: "count", Better: "higher"},
}

// workloadSpec names one workload and why it was chosen.
type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloads = []workloadSpec{
	{"fleet", "open loop through Network.Serve: admission, the worker pool and the 2-end walk with per-cell spans; no faults"},
	{"tiered-storm", "closed loop through armed 3-tier plans under hub storms: k-tier walk, per-hop links, framing, collapse ladder"},
	{"adaptive-chaos", "closed loop through adaptive resilient engines under garbled and reboot-storm faults: re-cut generator, journal"},
}

// benchmarkFile is the schema of BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

var (
	metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitName   = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// parseBenchmarkFile decodes BENCHMARK.json strictly: unknown keys are
// errors, and every name, unit, direction and bound must be well formed.
func parseBenchmarkFile(data []byte) (*benchmarkFile, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var f benchmarkFile
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	seen := make(map[string]bool)
	check := func(name string) error {
		if !metricName.MatchString(name) {
			return fmt.Errorf("BENCHMARK.json: bad name %q", name)
		}
		if seen[name] {
			return fmt.Errorf("BENCHMARK.json: name %q used twice", name)
		}
		seen[name] = true
		return nil
	}
	for _, w := range f.Workloads {
		if err := check(w.Name); err != nil {
			return nil, err
		}
	}
	for i, m := range append(append([]metricSpec(nil), f.EndToEnd...), f.PerLayer...) {
		if err := check(m.Name); err != nil {
			return nil, err
		}
		if !unitName.MatchString(m.Unit) {
			return nil, fmt.Errorf("BENCHMARK.json: metric %s has bad unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			return nil, fmt.Errorf("BENCHMARK.json: metric %s has bad direction %q", m.Name, m.Better)
		}
		if e2e := i < len(f.EndToEnd); e2e && !(m.Bound > 0 && m.Bound <= 0.25) {
			return nil, fmt.Errorf("BENCHMARK.json: metric %s has bound %v outside (0, 0.25]", m.Name, m.Bound)
		} else if !e2e && m.Bound != 0 {
			return nil, fmt.Errorf("BENCHMARK.json: per-layer metric %s has a bound", m.Name)
		}
	}
	return &f, nil
}
