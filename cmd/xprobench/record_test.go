package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleBench = `goos: linux
goarch: amd64
pkg: xpro
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkSLOReport        	  138126	       412.4 ns/op	     256 B/op	       2 allocs/op
BenchmarkFleetSequential-1	   10000	    108270 ns/op	   45000 B/op	     571 allocs/op
BenchmarkFleetSequential-4	   30000	     31000 ns/op	   45100 B/op	     572 allocs/op
BenchmarkFleetSequential-8	   50000	     16000 ns/op	   45200 B/op	     573 allocs/op
BenchmarkFleetThroughput  	    5000	    200000 ns/op	      9511 events/s
garbage line that is not a benchmark
PASS
ok  	xpro	4.846s
`

func TestParseBench(t *testing.T) {
	p, err := parseBench(strings.NewReader(sampleBench))
	if err != nil {
		t.Fatal(err)
	}
	if p.Goos != "linux" || p.Goarch != "amd64" || !strings.Contains(p.CPU, "Xeon") {
		t.Errorf("headers not parsed: %+v", p)
	}
	if len(p.Benchmarks) != 5 {
		t.Fatalf("parsed %d benchmarks, want 5: %v", len(p.Benchmarks), p.Benchmarks)
	}
	slo := p.Benchmarks["SLOReport"]
	if slo["ns_per_op"] != 412.4 || slo["bytes_per_op"] != 256 || slo["allocs_per_op"] != 2 {
		t.Errorf("SLOReport units wrong: %v", slo)
	}
	if got := p.Benchmarks["FleetThroughput"]["events_per_s"]; got != 9511 {
		t.Errorf("custom unit events/s = %v, want 9511", got)
	}
	if _, ok := p.Benchmarks["FleetSequential-4"]; !ok {
		t.Error("-N cpu suffix must be kept on the name")
	}
}

func TestParseBenchEmpty(t *testing.T) {
	if _, err := parseBench(strings.NewReader("PASS\nok xpro 1s\n")); err == nil {
		t.Error("no benchmark lines should error")
	}
}

func TestDeriveSpeedups(t *testing.T) {
	p, err := parseBench(strings.NewReader(sampleBench))
	if err != nil {
		t.Fatal(err)
	}
	d := deriveSpeedups(p)
	if got, want := d["FleetSequential_speedup_4x"], 108270.0/31000.0; math.Abs(got-want) > 0.001 {
		t.Errorf("4x speedup = %v, want %v", got, want)
	}
	if got, want := d["FleetSequential_speedup_8x"], 108270.0/16000.0; math.Abs(got-want) > 0.001 {
		t.Errorf("8x speedup = %v, want %v", got, want)
	}
	if _, ok := d["SLOReport_speedup_4x"]; ok {
		t.Error("benchmark without -N runs must derive no speedup")
	}
}

// recordBench appends schema-versioned points and preserves fields it
// does not understand — the BENCH_*.json trajectory survives recorder
// upgrades.
func TestRecordBenchAppend(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_serve.json")
	seed := `{
  "suite": "fleet-serving",
  "note": "hand-written provenance",
  "points": [
    {"date": "2026-08-06", "gomaxprocs": 1, "benchmarks": {"Old": {"ns_per_op": 1}}}
  ]
}`
	if err := os.WriteFile(path, []byte(seed), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := recordBench(path, strings.NewReader(sampleBench), "8-core CI run", &out); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if doc["suite"] != "fleet-serving" || doc["note"] != "hand-written provenance" {
		t.Errorf("existing top-level fields lost: %v", doc)
	}
	if v, _ := doc["schema_version"].(float64); int(v) != benchSchemaVersion {
		t.Errorf("schema_version = %v, want %d", doc["schema_version"], benchSchemaVersion)
	}
	points, _ := doc["points"].([]any)
	if len(points) != 2 {
		t.Fatalf("points = %d, want 2", len(points))
	}
	old, _ := points[0].(map[string]any)
	if _, ok := old["gomaxprocs"]; !ok {
		t.Error("unknown field of an existing point was dropped")
	}
	pt, _ := points[1].(map[string]any)
	if pt["note"] != "8-core CI run" || pt["goos"] != "linux" || pt["date"] == "" {
		t.Errorf("new point incomplete: %v", pt)
	}
	benches, _ := pt["benchmarks"].(map[string]any)
	if len(benches) != 5 {
		t.Errorf("new point has %d benchmarks, want 5", len(benches))
	}
	derived, _ := pt["derived"].(map[string]any)
	if _, ok := derived["FleetSequential_speedup_8x"]; !ok {
		t.Errorf("derived speedups missing: %v", derived)
	}
	// A multi -cpu run keeps its suffixed names and records no
	// gomaxprocs of its own.
	if _, ok := benches["FleetSequential-4"]; !ok {
		t.Errorf("suffixed names of a -cpu run were stripped: %v", benches)
	}
	if _, ok := pt["gomaxprocs"]; ok {
		t.Errorf("a multi -cpu point records gomaxprocs: %v", pt)
	}
	if !strings.Contains(out.String(), "recorded 5 benchmarks") {
		t.Errorf("summary line missing: %q", out.String())
	}

	// A second append keeps growing the trajectory.
	if err := recordBench(path, strings.NewReader(sampleBench), "", &out); err != nil {
		t.Fatal(err)
	}
	raw, _ = os.ReadFile(path)
	doc = map[string]any{}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if points, _ := doc["points"].([]any); len(points) != 3 {
		t.Errorf("points after second append = %d, want 3", len(points))
	}
}

// The -record flag drives the recorder end to end, creating the file
// when it does not exist yet.
func TestRunRecordFlag(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_new.json")
	in := filepath.Join(dir, "bench.txt")
	if err := os.WriteFile(in, []byte(sampleBench), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errOut bytes.Buffer
	if code := run([]string{"-record", path, "-record-in", in}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errOut.String())
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if points, _ := doc["points"].([]any); len(points) != 1 {
		t.Errorf("fresh file points = %d, want 1", len(points))
	}

	// Unreadable input and unparseable targets fail loudly.
	if code := run([]string{"-record", path, "-record-in", filepath.Join(dir, "missing.txt")}, &out, &errOut); code == 0 {
		t.Error("missing -record-in should fail")
	}
	bad := filepath.Join(dir, "bad.json")
	os.WriteFile(bad, []byte("not json"), 0o644)
	if code := run([]string{"-record", bad, "-record-in", in}, &out, &errOut); code == 0 {
		t.Error("corrupt target file should fail, not be overwritten")
	}
}

// A run at one GOMAXPROCS records bare benchmark names and the
// GOMAXPROCS once, so its points compare with points from hosts of
// another core count.
func TestRecordBenchUniformSuffix(t *testing.T) {
	const twoCore = `goos: linux
goarch: amd64
cpu: Intel(R) Xeon(R) Processor
BenchmarkMultiwaySolve-2   	   25000	     47000 ns/op	   21000 B/op	     435 allocs/op
BenchmarkRecutHop-2        	   60000	     19000 ns/op	    9000 B/op	     120 allocs/op
PASS
`
	path := filepath.Join(t.TempDir(), "BENCH_multiway.json")
	var out bytes.Buffer
	if err := recordBench(path, strings.NewReader(twoCore), "", &out); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	points, _ := doc["points"].([]any)
	pt, _ := points[0].(map[string]any)
	if procs, _ := pt["gomaxprocs"].(float64); procs != 2 {
		t.Errorf("gomaxprocs = %v, want 2", pt["gomaxprocs"])
	}
	benches, _ := pt["benchmarks"].(map[string]any)
	solve, _ := benches["MultiwaySolve"].(map[string]any)
	if len(benches) != 2 || solve["ns_per_op"] != 47000.0 || benches["RecutHop"] == nil {
		t.Errorf("benchmarks not keyed by bare name: %v", benches)
	}
	if !strings.Contains(out.String(), "MultiwaySolve RecutHop") {
		t.Errorf("summary line lists suffixed names: %q", out.String())
	}
}
