package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"time"
)

// benchSchemaVersion is the trajectory-file schema the recorder writes.
// Version 1: {suite?, note?, schema_version, points: [{date,
// commit_parent?, goos?, goarch?, cpu?, note?, benchmarks: {name:
// {unit: value}}, derived?: {key: value}}]}.
const benchSchemaVersion = 1

// benchPoint is one recorded trajectory point. Points are stored as
// loose maps so re-writing a file never drops fields written by other
// (older or newer) recorders.
type benchPoint = map[string]any

// parsedBench is the digest of one `go test -bench` text stream.
type parsedBench struct {
	Goos, Goarch, CPU string
	// Benchmarks maps the benchmark name (Benchmark prefix stripped,
	// -N GOMAXPROCS suffix kept until uniformProcs strips it) to its
	// unit→value measurements.
	Benchmarks map[string]map[string]float64
	order      []string
}

var benchLine = regexp.MustCompile(`^Benchmark(\S+)\s+\d+\s+(.*)$`)

// unitKey normalizes a go-bench unit into a JSON identifier:
// ns/op→ns_per_op, B/op→bytes_per_op, allocs/op→allocs_per_op,
// MB/s→mb_per_s; custom units keep their name with / and - folded.
func unitKey(unit string) string {
	switch unit {
	case "ns/op":
		return "ns_per_op"
	case "B/op":
		return "bytes_per_op"
	case "allocs/op":
		return "allocs_per_op"
	case "MB/s":
		return "mb_per_s"
	}
	unit = strings.ReplaceAll(unit, "/", "_per_")
	unit = strings.ReplaceAll(unit, "-", "_")
	return unit
}

// parseBench reads `go test -bench` output: the goos/goarch/cpu
// headers plus every benchmark result line. Unparseable lines are
// skipped (PASS, ok, log noise), so the stream can be a whole test
// run's combined output.
func parseBench(r io.Reader) (*parsedBench, error) {
	p := &parsedBench{Benchmarks: map[string]map[string]float64{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos: "):
			p.Goos = strings.TrimPrefix(line, "goos: ")
			continue
		case strings.HasPrefix(line, "goarch: "):
			p.Goarch = strings.TrimPrefix(line, "goarch: ")
			continue
		case strings.HasPrefix(line, "cpu: "):
			p.CPU = strings.TrimPrefix(line, "cpu: ")
			continue
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		name := m[1]
		fields := strings.Fields(m[2])
		if len(fields)%2 != 0 {
			continue
		}
		vals := map[string]float64{}
		for i := 0; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			vals[unitKey(fields[i+1])] = v
		}
		if len(vals) == 0 {
			continue
		}
		if _, dup := p.Benchmarks[name]; !dup {
			p.order = append(p.order, name)
		}
		p.Benchmarks[name] = vals
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(p.Benchmarks) == 0 {
		return nil, fmt.Errorf("no benchmark result lines found")
	}
	return p, nil
}

var cpuSuffix = regexp.MustCompile(`^(.*)-(\d+)$`)

// deriveSpeedups computes multi-core speedups from a -cpu 1,4,8 style
// run: for every benchmark base name measured at GOMAXPROCS=1 and at
// N>1, it records ns(1)/ns(N) as "<base>_speedup_<N>x".
func deriveSpeedups(p *parsedBench) map[string]float64 {
	type run struct {
		procs int
		ns    float64
	}
	groups := map[string][]run{}
	for name, vals := range p.Benchmarks {
		m := cpuSuffix.FindStringSubmatch(name)
		if m == nil {
			continue
		}
		procs, err := strconv.Atoi(m[2])
		if err != nil {
			continue
		}
		ns, ok := vals["ns_per_op"]
		if !ok || ns <= 0 {
			continue
		}
		groups[m[1]] = append(groups[m[1]], run{procs, ns})
	}
	derived := map[string]float64{}
	for base, runs := range groups {
		var ns1 float64
		for _, r := range runs {
			if r.procs == 1 {
				ns1 = r.ns
			}
		}
		if ns1 <= 0 {
			continue
		}
		for _, r := range runs {
			if r.procs == 1 {
				continue
			}
			key := fmt.Sprintf("%s_speedup_%dx", base, r.procs)
			derived[key] = math3(ns1 / r.ns)
		}
	}
	return derived
}

// uniformProcs strips the -N GOMAXPROCS suffix from every benchmark
// name when all of them carry the same one, and returns N. Points
// recorded at different GOMAXPROCS then share benchmark names, and the
// point says N once. It returns 0 and keeps the names when a name has
// no suffix or the suffixes differ, as in a -cpu 1,4,8 run, whose
// suffixes deriveSpeedups reads.
func (p *parsedBench) uniformProcs() int {
	procs := ""
	for _, name := range p.order {
		m := cpuSuffix.FindStringSubmatch(name)
		if m == nil || procs != "" && m[2] != procs {
			return 0
		}
		procs = m[2]
	}
	n, err := strconv.Atoi(procs)
	if err != nil {
		return 0
	}
	benches := make(map[string]map[string]float64, len(p.order))
	for i, name := range p.order {
		p.order[i] = strings.TrimSuffix(name, "-"+procs)
		benches[p.order[i]] = p.Benchmarks[name]
	}
	p.Benchmarks = benches
	return n
}

// math3 rounds to 3 decimals so trajectory diffs stay readable.
func math3(v float64) float64 {
	return float64(int64(v*1000+0.5)) / 1000
}

// gitHead returns the short commit hash of HEAD, best-effort.
func gitHead() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

// recordBench parses bench output from in and appends one trajectory
// point to the JSON file at path, creating it when missing. Fields of
// an existing file (suite, note, prior points) are preserved verbatim;
// schema_version is stamped on every write.
func recordBench(path string, in io.Reader, note string, stdout io.Writer) error {
	p, err := parseBench(in)
	if err != nil {
		return fmt.Errorf("parse bench input: %w", err)
	}

	doc := map[string]any{}
	if raw, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(raw, &doc); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}

	derived := deriveSpeedups(p)
	procs := p.uniformProcs()
	point := benchPoint{
		"date":       time.Now().UTC().Format("2006-01-02"),
		"benchmarks": p.Benchmarks,
	}
	if procs > 0 {
		point["gomaxprocs"] = procs
	}
	if c := gitHead(); c != "" {
		point["commit_parent"] = c
	}
	if p.Goos != "" {
		point["goos"] = p.Goos
	}
	if p.Goarch != "" {
		point["goarch"] = p.Goarch
	}
	if p.CPU != "" {
		point["cpu"] = p.CPU
	}
	if note != "" {
		point["note"] = note
	}
	if len(derived) > 0 {
		point["derived"] = derived
	}

	points, _ := doc["points"].([]any)
	doc["points"] = append(points, point)
	doc["schema_version"] = benchSchemaVersion

	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		return err
	}
	names := append([]string(nil), p.order...)
	sort.Strings(names)
	fmt.Fprintf(stdout, "recorded %d benchmarks to %s (point %d, schema v%d): %s\n",
		len(p.Benchmarks), path, len(points)+1, benchSchemaVersion, strings.Join(names, " "))
	return nil
}
