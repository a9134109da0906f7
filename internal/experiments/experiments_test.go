package experiments

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"xpro/internal/celllib"
	"xpro/internal/ensemble"
	"xpro/internal/wireless"
)

// fastLab trains only two cases with a minimal protocol so the whole
// experiment suite exercises in seconds.
func fastLab() *Lab {
	l := NewLab()
	l.Cases = []string{"C1", "E1"}
	l.Config = func(seed int64) ensemble.Config {
		cfg := ensemble.DefaultConfig(seed)
		cfg.Candidates = 8
		cfg.Folds = 2
		cfg.TopFrac = 0.4
		cfg.CandidateTrainCap = 160
		return cfg
	}
	return l
}

func TestLabInstanceCaching(t *testing.T) {
	l := fastLab()
	a, err := l.Instance("C1")
	if err != nil {
		t.Fatal(err)
	}
	b, err := l.Instance("C1")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("instances must be cached")
	}
	if _, err := l.Instance("ZZ"); err == nil {
		t.Error("unknown case should error")
	}
	insts, err := l.Instances()
	if err != nil {
		t.Fatal(err)
	}
	if len(insts) != 2 {
		t.Fatalf("instances = %d, want 2", len(insts))
	}
}

func TestLabSymbols(t *testing.T) {
	if got := NewLab().Symbols(); len(got) != 6 {
		t.Errorf("default lab covers %d cases, want 6", len(got))
	}
	if got := fastLab().Symbols(); len(got) != 2 {
		t.Errorf("restricted lab covers %d cases, want 2", len(got))
	}
}

func TestEnginesInvariants(t *testing.T) {
	l := fastLab()
	es, err := l.Engines("E1", celllib.P90, wireless.Model2())
	if err != nil {
		t.Fatal(err)
	}
	// Cached on second call.
	es2, err := l.Engines("E1", celllib.P90, wireless.Model2())
	if err != nil || es2 != es {
		t.Error("engine sets must be cached")
	}
	// The generator's cut never loses to the single-end engines on
	// energy...
	ec := es.CrossEnd.EnergyPerEvent().SensorTotal()
	for _, other := range []float64{
		es.InAggregator.EnergyPerEvent().SensorTotal(),
		es.InSensor.EnergyPerEvent().SensorTotal(),
	} {
		if ec > other+1e-12 {
			t.Errorf("cross-end energy %v worse than a baseline %v", ec, other)
		}
	}
	// ...and respects the delay constraint T_XPro = min(T_F, T_B).
	limit := es.InAggregator.DelayPerEvent().Total()
	if d := es.InSensor.DelayPerEvent().Total(); d < limit {
		limit = d
	}
	if dc := es.CrossEnd.DelayPerEvent().Total(); dc > limit+1e-12 {
		t.Errorf("cross-end delay %v exceeds T_XPro %v", dc, limit)
	}
}

func TestAllExperimentsProduceTables(t *testing.T) {
	l := fastLab()
	var buf bytes.Buffer
	if err := All(l, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, id := range []string{"table1", "fig4", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "headline"} {
		if !strings.Contains(out, "=== "+id+":") {
			t.Errorf("output missing experiment %s", id)
		}
	}
	if !strings.Contains(out, "note:") {
		t.Error("output missing paper-comparison notes")
	}
}

func TestRunUnknown(t *testing.T) {
	if err := Run(fastLab(), "fig99", &bytes.Buffer{}); err == nil {
		t.Error("unknown experiment should error")
	}
}

func TestTable1MatchesPaper(t *testing.T) {
	l := fastLab()
	tab, err := Table1(l)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// C1 row: ECGTwoLead, 82, 1162.
	if tab.Rows[0][0] != "ECGTwoLead" || tab.Rows[0][2] != "82" || tab.Rows[0][3] != "1162" {
		t.Errorf("C1 row = %v", tab.Rows[0])
	}
}

func TestFig4ModesInTable(t *testing.T) {
	tab := Fig4()
	if len(tab.Rows) != 11 { // 8 features + DWT + SVM + Fusion
		t.Fatalf("fig4 rows = %d, want 11", len(tab.Rows))
	}
	want := map[string]string{"Max": "serial", "Std": "pipeline", "DWT": "pipeline", "SVM": "serial", "Fusion": "serial"}
	for _, row := range tab.Rows {
		if m, ok := want[row[0]]; ok && row[4] != m {
			t.Errorf("%s optimal mode %q, want %q", row[0], row[4], m)
		}
	}
}

func TestFig12CrossNeverWorse(t *testing.T) {
	l := fastLab()
	tab, err := Fig12(l)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range tab.Notes {
		if strings.Contains(n, "WARNING") {
			t.Errorf("optimality violated: %s", n)
		}
	}
}

func TestTableFormatting(t *testing.T) {
	tab := &Table{ID: "x", Title: "t", Header: []string{"a", "bb"}}
	tab.AddRow("1", "2")
	tab.AddNote("n=%d", 5)
	var buf bytes.Buffer
	if _, err := tab.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"=== x: t ===", "a  bb", "note: n=5"} {
		if !strings.Contains(out, want) {
			t.Errorf("formatted table missing %q in %q", want, out)
		}
	}
}

// Every scorecard claim must pass — a calibration regression fails here
// rather than silently drifting the tables. The claims are averages over
// the evaluation protocol, so this test uses the real DefaultConfig (not
// the scaled-down fastLab one) on the two compute-heavy cases E1+M1
// where a two-case average is representative; `xprobench -exp scorecard`
// runs the full six-case version.
func TestScorecardPasses(t *testing.T) {
	l := NewLab()
	l.Cases = []string{"E1", "M1"}
	tab, err := Scorecard(l)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab.Rows {
		if row[len(row)-1] != "PASS" {
			var buf bytes.Buffer
			tab.WriteTo(&buf)
			t.Fatalf("scorecard has failures:\n%s", buf.String())
		}
	}
	if len(tab.Rows) < 10 {
		t.Errorf("scorecard has only %d claims", len(tab.Rows))
	}
}

// The ext-adaptive soak is the PR's acceptance claim in table form: on
// the cyclone drift profile at least one case's adaptive variant must
// dominate — no more sensor energy than the static cut, no more
// deadline violations than the degradation ladder.
func TestExtAdaptiveDominates(t *testing.T) {
	if testing.Short() {
		t.Skip("trains engines and runs three chaos soaks per case")
	}
	tab, err := ExtAdaptive(fastLab())
	if err != nil {
		t.Fatal(err)
	}
	dominated := false
	for _, n := range tab.Notes {
		if strings.Contains(n, "dominates: true") {
			dominated = true
		}
	}
	if !dominated {
		t.Errorf("no case dominated on the cyclone profile; notes: %v", tab.Notes)
	}
}

// ext-corruption is the data-plane integrity tentpole in table form:
// under the seeded bit-flip storm the bare wire must consume corrupted
// values undetected while the framed transport must reject frames at
// the CRC — and the framed rows must never report delivered corruption
// (that is asserted by the table's per-case notes and checked here via
// the Corrupt columns).
func TestExtCorruptionShape(t *testing.T) {
	if testing.Short() {
		t.Skip("trains engines and replays two corruption soaks per case")
	}
	tab, err := ExtCorruption(fastLab())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(tab.Rows), 2*len(fastLab().Symbols()); got != want {
		t.Fatalf("ext-corruption has %d rows, want %d (bare+framed per case)", got, want)
	}
	sawBareCorruption, sawFramedDetection := false, false
	for i, row := range tab.Rows {
		if len(row) != len(tab.Header) {
			t.Fatalf("row %d has %d cells, header has %d", i, len(row), len(tab.Header))
		}
		corrupt, err := strconv.Atoi(row[3])
		if err != nil {
			t.Fatalf("row %d corrupt column %q is not an integer", i, row[3])
		}
		switch row[1] {
		case "bare":
			if corrupt > 0 {
				sawBareCorruption = true
			}
		case "framed":
			if corrupt > 0 {
				sawFramedDetection = true
			}
		default:
			t.Fatalf("row %d wire = %q", i, row[1])
		}
	}
	if !sawBareCorruption {
		t.Error("no bare-wire row consumed corrupted values; the storm did not bite")
	}
	if !sawFramedDetection {
		t.Error("no framed row rejected corrupt frames at the CRC")
	}
}

// ext-parallel is the fleet-serving tentpole in table form: the pooled
// rows must exist for every case, carry a parseable speedup, and the
// experiment itself errors if any pooled label diverges from the
// sequential golden — so a passing run is also an equivalence check.
func TestExtParallelShape(t *testing.T) {
	l := fastLab()
	l.ParallelWorkers = 4
	tab, err := ExtParallel(l)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(tab.Rows), 2*len(l.Symbols()); got != want {
		t.Fatalf("ext-parallel has %d rows, want %d (sequential+pooled per case)", got, want)
	}
	for i, row := range tab.Rows {
		if len(row) != len(tab.Header) {
			t.Fatalf("row %d has %d cells, header has %d", i, len(row), len(tab.Header))
		}
		wantMode := "sequential"
		if i%2 == 1 {
			wantMode = "pooled"
		}
		if row[1] != wantMode {
			t.Errorf("row %d mode = %q, want %q", i, row[1], wantMode)
		}
		speedup, err := strconv.ParseFloat(row[5], 64)
		if err != nil || speedup <= 0 {
			t.Errorf("row %d speedup %q is not a positive number (%v)", i, row[5], err)
		}
	}
	if len(tab.Notes) == 0 {
		t.Error("ext-parallel table has no notes")
	}
}

// ext-multiway is the N-tier placement tentpole in table form: one row
// per case, k-way cost never above the best single-hop bi-partition,
// per-tier cell counts covering the graph, and tier-count
// parameterization via Lab.TierCount.
func TestExtMultiwayShape(t *testing.T) {
	for _, k := range []int{2, 3, 4} {
		l := fastLab()
		l.TierCount = k
		tab, err := ExtMultiway(l)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := len(tab.Rows), len(l.Symbols()); got != want {
			t.Fatalf("k=%d: ext-multiway has %d rows, want %d", k, got, want)
		}
		for i, row := range tab.Rows {
			if len(row) != len(tab.Header) {
				t.Fatalf("k=%d row %d has %d cells, header has %d", k, i, len(row), len(tab.Header))
			}
			bi, err := strconv.ParseFloat(row[2], 64)
			if err != nil {
				t.Fatalf("k=%d row %d: bi-partition cost %q unparseable: %v", k, i, row[2], err)
			}
			kway, err := strconv.ParseFloat(row[3], 64)
			if err != nil {
				t.Fatalf("k=%d row %d: k-way cost %q unparseable: %v", k, i, row[3], err)
			}
			if kway > bi+1e-3 { // printed at 3 decimals
				t.Errorf("k=%d row %d: k-way %v above bi-partition %v", k, i, kway, bi)
			}
			if tiers := strings.Count(row[5], "/") + 1; tiers != k {
				t.Errorf("k=%d row %d: per-tier column %q has %d tiers", k, i, row[5], tiers)
			}
			if hops := strings.Count(row[6], "/") + 1; hops != k-1 {
				t.Errorf("k=%d row %d: hop-bits column %q has %d hops", k, i, row[6], hops)
			}
		}
		if len(tab.Notes) == 0 {
			t.Errorf("k=%d: ext-multiway table has no notes", k)
		}
	}
}
