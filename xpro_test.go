package xpro

import (
	"bytes"
	"strings"
	"testing"
)

func TestCases(t *testing.T) {
	cs := Cases()
	if len(cs) != 6 {
		t.Fatalf("cases = %d, want 6", len(cs))
	}
	if cs[0].Symbol != "C1" || cs[0].SegmentLength != 82 || cs[0].SegmentCount != 1162 {
		t.Errorf("C1 attributes wrong: %+v", cs[0])
	}
	if cs[2].Family != "EEG" {
		t.Errorf("E1 family = %s", cs[2].Family)
	}
}

func TestDataset(t *testing.T) {
	segs, err := Dataset("C1")
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1162 || len(segs[0].Samples) != 82 {
		t.Errorf("dataset shape wrong: %d segments of %d", len(segs), len(segs[0].Samples))
	}
	if _, err := Dataset("nope"); err == nil {
		t.Error("unknown case should error")
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("missing case should error")
	}
	if _, err := New(Config{Case: "XX"}); err == nil {
		t.Error("unknown case should error")
	}
	if _, err := New(Config{Case: "C1", Kind: EngineKind(42)}); err == nil {
		t.Error("unknown kind should error")
	}
}

func TestEndToEndCrossEnd(t *testing.T) {
	eng, err := New(Config{Case: "E1"})
	if err != nil {
		t.Fatal(err)
	}
	rep := eng.Report()
	if rep.Kind != "cross-end" || rep.Case != "E1" {
		t.Errorf("report identity wrong: %+v", rep)
	}
	if rep.Cells != rep.SensorCells+rep.AggregatorCells {
		t.Error("cell counts inconsistent")
	}
	if rep.SensorEnergyPerEvent <= 0 || rep.SensorLifetimeHours <= 0 || rep.DelayPerEventSeconds <= 0 {
		t.Errorf("non-positive report values: %+v", rep)
	}
	if rep.DelayPerEventSeconds >= 4e-3 {
		t.Errorf("delay %v ≥ 4 ms", rep.DelayPerEventSeconds)
	}
	if rep.SoftwareAccuracy < 0.7 {
		t.Errorf("software accuracy %v too low", rep.SoftwareAccuracy)
	}

	// Classify a few test segments through the partitioned pipeline.
	test := eng.TestSet()
	if len(test) == 0 {
		t.Fatal("empty test set")
	}
	correct := 0
	n := 100
	for i := 0; i < n; i++ {
		got, err := eng.Classify(test[i].Samples)
		if err != nil {
			t.Fatal(err)
		}
		if got == test[i].Label {
			correct++
		}
	}
	if frac := float64(correct) / float64(n); frac < 0.7 {
		t.Errorf("cross-end pipeline accuracy %v, want ≥ 0.7", frac)
	}

	// Peak power must exceed the per-event average power implied by the
	// energy model over the front-end window.
	peak, err := eng.PeakPowerWatts()
	if err != nil {
		t.Fatal(err)
	}
	if peak <= 0 {
		t.Errorf("peak power %v", peak)
	}

	// The Graphviz rendering must reflect the placement.
	dot := eng.DOT()
	for _, want := range []string{"digraph xpro", "cluster_sensor"} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT missing %q", want)
		}
	}

	// Placement must cover every cell and include both roles.
	pl := eng.Placement()
	if len(pl) != rep.Cells {
		t.Fatalf("placement covers %d cells, want %d", len(pl), rep.Cells)
	}
	for _, cp := range pl {
		if cp.End != "sensor" && cp.End != "aggregator" {
			t.Errorf("bad end %q", cp.End)
		}
	}
}

func TestCompareOrdering(t *testing.T) {
	reps, err := Compare(Config{Case: "M2"})
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 4 {
		t.Fatalf("reports = %d, want 4", len(reps))
	}
	byKind := map[string]Report{}
	for _, r := range reps {
		byKind[r.Kind] = r
	}
	c := byKind["cross-end"]
	// The paper's structural guarantee: the generated engine never loses
	// to either single-end engine on sensor energy...
	for _, k := range []string{"in-sensor", "in-aggregator"} {
		if c.SensorEnergyPerEvent > byKind[k].SensorEnergyPerEvent*(1+1e-9) {
			t.Errorf("cross-end energy %v worse than %s %v", c.SensorEnergyPerEvent, k, byKind[k].SensorEnergyPerEvent)
		}
		if c.SensorLifetimeHours < byKind[k].SensorLifetimeHours*(1-1e-9) {
			t.Errorf("cross-end lifetime worse than %s", k)
		}
	}
	// ...and meets the delay constraint.
	limit := byKind["in-sensor"].DelayPerEventSeconds
	if d := byKind["in-aggregator"].DelayPerEventSeconds; d < limit {
		limit = d
	}
	if c.DelayPerEventSeconds > limit*(1+1e-9) {
		t.Errorf("cross-end delay %v exceeds min single-end %v", c.DelayPerEventSeconds, limit)
	}
	// Engine-kind breakdown sanity.
	if byKind["in-sensor"].AggregatorCells != 0 || byKind["in-aggregator"].SensorCells != 0 {
		t.Error("single-end engines must keep all cells on one side")
	}
	if byKind["trivial-cut"].SensorCells == 0 || byKind["trivial-cut"].AggregatorCells == 0 {
		t.Error("trivial cut must split the cells")
	}
}

func TestKindStrings(t *testing.T) {
	want := map[EngineKind]string{
		CrossEnd: "cross-end", InSensor: "in-sensor",
		InAggregator: "in-aggregator", TrivialCut: "trivial-cut",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("kind %d = %q, want %q", k, k.String(), s)
		}
	}
	if EngineKind(9).String() != "EngineKind(9)" {
		t.Error("unknown kind formatting")
	}
	if Process90nm.String() != "90nm" || Process130nm.String() != "130nm" || Process45nm.String() != "45nm" {
		t.Error("process names wrong")
	}
	if !strings.HasPrefix(WirelessModel1.String(), "model1") || !strings.HasPrefix(WirelessModel3.String(), "model3") {
		t.Error("wireless names wrong")
	}
}

func TestPruneKeep(t *testing.T) {
	full, err := New(Config{Case: "E1", Kind: InSensor})
	if err != nil {
		t.Fatal(err)
	}
	pruned, err := New(Config{Case: "E1", Kind: InSensor, PruneKeep: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	fr, pr := full.Report(), pruned.Report()
	if pr.SensorEnergyPerEvent >= fr.SensorEnergyPerEvent {
		t.Errorf("pruned engine energy %v not below full %v", pr.SensorEnergyPerEvent, fr.SensorEnergyPerEvent)
	}
	if pr.DelayPerEventSeconds >= fr.DelayPerEventSeconds {
		t.Errorf("pruned engine delay %v not below full %v", pr.DelayPerEventSeconds, fr.DelayPerEventSeconds)
	}
	if _, err := New(Config{Case: "E1", PruneKeep: 1.5}); err == nil {
		t.Error("PruneKeep ≥ 1 should error")
	}
	if _, err := New(Config{Case: "E1", PruneKeep: -0.5}); err == nil {
		t.Error("negative PruneKeep should error")
	}
}

// TestCachedSoftwareAccuracy: the software accuracy kept with a cached
// trained ensemble is the one a fresh evaluation gives, and a pruned
// engine reports its own ensemble's.
func TestCachedSoftwareAccuracy(t *testing.T) {
	for _, cfg := range []Config{
		{Case: "E1", Kind: InSensor},
		{Case: "E1", Kind: InSensor},
		{Case: "E1", Kind: InSensor, PruneKeep: 0.5},
	} {
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := e.ens.Accuracy(e.test)
		if err != nil {
			t.Fatal(err)
		}
		if got := e.SoftwareAccuracy(); got != want {
			t.Errorf("PruneKeep %v: SoftwareAccuracy %v, fresh evaluation %v", cfg.PruneKeep, got, want)
		}
	}
}

func TestTimelineAndSimulatedDelay(t *testing.T) {
	eng, err := New(Config{Case: "C2", Kind: TrivialCut})
	if err != nil {
		t.Fatal(err)
	}
	sim, err := eng.SimulatedDelay()
	if err != nil {
		t.Fatal(err)
	}
	add := eng.Report().DelayPerEventSeconds
	if sim <= 0 || sim > add*(1+1e-9) {
		t.Errorf("simulated delay %v outside (0, additive %v]", sim, add)
	}
	tl, err := eng.Timeline()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"sensor", "link", "aggregator", "finish:"} {
		if !strings.Contains(tl, want) {
			t.Errorf("timeline missing %q", want)
		}
	}
}

func TestRunExperiments(t *testing.T) {
	var buf bytes.Buffer
	if err := RunExperiments(&buf, "fig4", ProtocolFast); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "=== fig4:") {
		t.Error("fig4 output missing")
	}
	if err := RunExperiments(&buf, "fig99", ProtocolFast); err == nil {
		t.Error("unknown experiment should error")
	}
	buf.Reset()
	if err := RunExperiments(&buf, "table1", ProtocolFast, "C1"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "ECGTwoLead") {
		t.Error("restricted table1 missing C1 row")
	}
}

func TestDomainImportancePublic(t *testing.T) {
	eng, err := New(Config{Case: "E1", Kind: InSensor})
	if err != nil {
		t.Fatal(err)
	}
	shares, err := eng.DomainImportance()
	if err != nil {
		t.Fatal(err)
	}
	var total, dwt float64
	for name, s := range shares {
		if s < 0 || s > 1 {
			t.Errorf("domain %s share %v outside [0,1]", name, s)
		}
		total += s
		if name != "time" {
			dwt += s
		}
	}
	if total < 0.99 || total > 1.01 {
		t.Errorf("shares sum to %v", total)
	}
	// §2.1: EEG prefers the DWT representation.
	if dwt < 0.5 {
		t.Errorf("EEG DWT share %v, expected dominant", dwt)
	}
}
