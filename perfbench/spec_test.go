package main

import (
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
)

func TestMetricNamesAreWellFormed(t *testing.T) {
	seen := map[string]bool{}
	var names []string
	for _, w := range workloads {
		names = append(names, w.Name)
	}
	for _, m := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
		names = append(names, m.Name)
		if !unitName.MatchString(m.Unit) {
			t.Errorf("metric %s: bad unit %q", m.Name, m.Unit)
		}
	}
	for _, n := range names {
		if !metricName.MatchString(n) {
			t.Errorf("name %q does not match %s", n, metricName)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
}

func TestSetupHasTheLargestBound(t *testing.T) {
	var setup float64
	for _, m := range endToEnd {
		if m.Name == "setup_s" {
			setup = m.Bound
		}
	}
	for _, m := range endToEnd {
		if m.Bound > setup {
			t.Errorf("%s bound %v exceeds setup_s bound %v", m.Name, m.Bound, setup)
		}
	}
}

func TestBenchmarkFileRoundTrip(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	f, err := parseBenchmarkFile(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f.EndToEnd, endToEnd) || !reflect.DeepEqual(f.PerLayer, perLayer) || !reflect.DeepEqual(f.Workloads, workloads) {
		t.Error("BENCHMARK.json and the metrics and workloads the program reports differ")
	}
	if want := []string{"python3", "perfbench/run.py"}; !reflect.DeepEqual(f.Command, want) {
		t.Errorf("command %q, want %q", f.Command, want)
	}
	if !reflect.DeepEqual(f.Paths, []string{"perfbench"}) || f.RunSeconds < 1 || f.RunSeconds > 60 {
		t.Errorf("paths %q, run_seconds %d", f.Paths, f.RunSeconds)
	}
	out, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if string(out)+"\n" != string(data) {
		t.Error("BENCHMARK.json does not re-encode byte for byte")
	}
	g, err := parseBenchmarkFile(out)
	if err != nil || !reflect.DeepEqual(f, g) {
		t.Errorf("round trip changed the file (err %v)", err)
	}
	for _, bad := range []string{
		strings.Replace(string(data), `"run_seconds"`, `"run_secs"`, 1),
		strings.Replace(string(data), `"bound": 0.25`, `"bound": 0.5`, 1),
		strings.Replace(string(data), `"name": "p50_us"`, `"name": "p50 us"`, 1),
		strings.Replace(string(data), `"name": "p90_us"`, `"name": "p50_us"`, 1),
	} {
		if _, err := parseBenchmarkFile([]byte(bad)); err == nil {
			t.Errorf("accepted a malformed file:\n%.200s", bad)
		}
	}
}
