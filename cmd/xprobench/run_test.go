package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunBadFlags(t *testing.T) {
	var out, errOut bytes.Buffer
	cases := [][]string{
		{"-nosuchflag"},
		{"-format", "xml"},
		{"-protocol", "slow"},
		{"-exp", "fig99", "-cases", "C1"},
	}
	for _, args := range cases {
		out.Reset()
		errOut.Reset()
		if code := run(args, &out, &errOut); code == 0 {
			t.Errorf("args %v: exit 0, want failure", args)
		}
	}
}

func TestRunUnknownCase(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-exp", "table1", "-cases", "ZZ"}, &out, &errOut); code == 0 {
		t.Error("unknown case should fail")
	}
	if !strings.Contains(errOut.String(), "ZZ") {
		t.Errorf("stderr should name the bad case: %q", errOut.String())
	}
}

func TestRunFig4NoTraining(t *testing.T) {
	// fig4 needs no trained instances → fast even in tests.
	var out, errOut bytes.Buffer
	if code := run([]string{"-exp", "fig4"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errOut.String())
	}
	if !strings.Contains(out.String(), "=== fig4:") {
		t.Error("missing fig4 table")
	}
	out.Reset()
	if code := run([]string{"-exp", "fig4", "-format", "csv"}, &out, &errOut); code != 0 {
		t.Fatal("csv format failed")
	}
	if !strings.Contains(out.String(), "Module,Serial") {
		t.Error("csv output malformed")
	}
}

func TestRunMetricsServer(t *testing.T) {
	// fig4 needs no training, so the server lifecycle test stays fast.
	tracePath := filepath.Join(t.TempDir(), "trace.json")
	var out, errOut bytes.Buffer
	code := run([]string{"-exp", "fig4", "-metrics-addr", "127.0.0.1:0",
		"-trace-out", tracePath}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errOut.String())
	}
	s := out.String()
	if !strings.Contains(s, "introspection: http://127.0.0.1:") {
		t.Errorf("missing introspection line:\n%s", s)
	}
	if !strings.Contains(s, "spans written to "+tracePath) {
		t.Errorf("missing trace summary:\n%s", s)
	}
	raw, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if !json.Valid(raw) {
		t.Error("trace file is not valid JSON")
	}
}

func TestRunTable1SingleCase(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-exp", "table1", "-cases", "C1"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errOut.String())
	}
	if !strings.Contains(out.String(), "ECGTwoLead") {
		t.Error("table1 missing C1 row")
	}
}

func TestRunAdaptive(t *testing.T) {
	if testing.Short() {
		t.Skip("trains an engine and runs a chaos soak")
	}
	var out, errOut bytes.Buffer
	if code := run([]string{"-exp", "ext-adaptive", "-cases", "C1"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errOut.String())
	}
	s := out.String()
	if !strings.Contains(s, "=== ext-adaptive:") {
		t.Errorf("missing ext-adaptive table:\n%s", s)
	}
	for _, variant := range []string{"static", "ladder", "adaptive"} {
		if !strings.Contains(s, variant) {
			t.Errorf("table missing %q variant:\n%s", variant, s)
		}
	}
}

// The ext-corruption experiment prints bare and framed rows per case
// under the seeded bit-flip storm.
func TestRunCorruption(t *testing.T) {
	if testing.Short() {
		t.Skip("trains an engine and replays two corruption soaks")
	}
	var out, errOut bytes.Buffer
	if code := run([]string{"-exp", "ext-corruption", "-cases", "C1"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errOut.String())
	}
	s := out.String()
	if !strings.Contains(s, "=== ext-corruption:") {
		t.Errorf("missing ext-corruption table:\n%s", s)
	}
	for _, wire := range []string{"bare", "framed"} {
		if !strings.Contains(s, wire) {
			t.Errorf("table missing %q row:\n%s", wire, s)
		}
	}
}

// -parallel is shorthand for the ext-parallel experiment: sequential
// and pooled rows per case with a speedup column.
func TestRunParallelShorthand(t *testing.T) {
	if testing.Short() {
		t.Skip("trains an engine and times two classification sweeps")
	}
	var out, errOut bytes.Buffer
	if code := run([]string{"-parallel", "4", "-cases", "C1"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errOut.String())
	}
	s := out.String()
	if !strings.Contains(s, "=== ext-parallel:") {
		t.Errorf("missing ext-parallel table:\n%s", s)
	}
	for _, mode := range []string{"sequential", "pooled"} {
		if !strings.Contains(s, mode) {
			t.Errorf("table missing %q row:\n%s", mode, s)
		}
	}
	errOut.Reset()
	if code := run([]string{"-parallel", "-3"}, &out, &errOut); code == 0 {
		t.Error("-parallel -3 accepted, want usage failure")
	}
}

// -tiers is shorthand for the ext-multiway experiment: one N-tier
// placement row per case with per-tier counts and hop traffic.
func TestRunTiersShorthand(t *testing.T) {
	if testing.Short() {
		t.Skip("trains an engine and solves k-way placements")
	}
	var out, errOut bytes.Buffer
	if code := run([]string{"-tiers", "4", "-cases", "C1"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errOut.String())
	}
	s := out.String()
	if !strings.Contains(s, "=== ext-multiway:") {
		t.Errorf("missing ext-multiway table:\n%s", s)
	}
	if !strings.Contains(s, "4-tier chain") {
		t.Errorf("table not parameterized to 4 tiers:\n%s", s)
	}
	errOut.Reset()
	if code := run([]string{"-tiers", "1"}, &out, &errOut); code == 0 {
		t.Error("-tiers 1 accepted, want usage failure")
	}
}
