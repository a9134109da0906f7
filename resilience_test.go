package xpro

import (
	"errors"
	"math"
	"reflect"
	"testing"
	"time"

	"xpro/internal/adaptive"
	"xpro/internal/faults"
	"xpro/internal/xsystem"
)

// outagePlan covers the whole run with a hard link outage.
func outagePlan(seed int64) *FaultPlan {
	return &FaultPlan{
		Windows: []FaultWindow{{Kind: "link-outage", StartSeconds: 0, EndSeconds: 3600}},
		Seed:    seed,
	}
}

// The headline acceptance scenario: with the link fully down, every
// Classify still returns a correctly-formatted result tagged Degraded
// within the configured deadline budget — no error, no hang — while the
// breaker-state gauge and the degraded counter advance.
func TestResilienceDegradedUnderHardOutage(t *testing.T) {
	eng, err := New(Config{Case: "C1", FaultPlan: outagePlan(9)})
	if err != nil {
		t.Fatal(err)
	}
	deadline := DefaultResilience().DeadlineSeconds
	test := eng.TestSet()
	obs := eng.Observer()
	const n = 20
	for i := 0; i < n; i++ {
		res, err := eng.ClassifyResult(test[i].Samples)
		if err != nil {
			t.Fatalf("event %d: %v (faults must degrade, not error)", i, err)
		}
		if !res.Degraded {
			t.Errorf("event %d: not degraded under a hard outage: %+v", i, res)
		}
		if res.Label != 0 && res.Label != 1 {
			t.Errorf("event %d: label %d outside {0,1}", i, res.Label)
		}
		if res.Mode != ModeSensorLocal && res.Mode != ModeFallbackSensor {
			t.Errorf("event %d: mode %v, want sensor-local or fallback-sensor", i, res.Mode)
		}
		if res.SpentSeconds > deadline {
			t.Errorf("event %d: spent %v exceeds the %v deadline budget", i, res.SpentSeconds, deadline)
		}
		if math.IsNaN(res.SpentSeconds) || res.SpentSeconds < 0 {
			t.Errorf("event %d: invalid spent time %v", i, res.SpentSeconds)
		}
	}

	degraded := obs.MetricValue(`xpro_classify_degraded_total{mode="sensor-local"}`) +
		obs.MetricValue(`xpro_classify_degraded_total{mode="fallback-sensor"}`)
	if degraded != n {
		t.Errorf("degraded counter = %v, want %d", degraded, n)
	}
	if got := obs.MetricValue("xpro_breaker_state"); got != float64(faults.BreakerOpen) {
		t.Errorf("breaker gauge = %v, want open (%d)", got, faults.BreakerOpen)
	}
	if obs.MetricValue("xpro_breaker_transitions_total") == 0 {
		t.Error("breaker transitions counter did not advance")
	}
	if obs.MetricValue("xpro_transfer_drops_total") == 0 {
		t.Error("transfer drops counter did not advance")
	}

	// Degraded events are marked on their spans.
	marked := 0
	for _, s := range obs.Spans() {
		if s.End == "event" && s.Degraded {
			marked++
		}
	}
	if marked != n {
		t.Errorf("degraded spans = %d, want %d", marked, n)
	}
}

// The same seed must replay the identical event sequence: results,
// modes, retry counts, breaker states — and even the rare genuine
// failure (a brownout overlapping an outage leaves no path at all)
// lands on the same event with the same message.
func TestResilienceDeterministicReplay(t *testing.T) {
	type event struct {
		Res Result
		Err string
	}
	run := func() []event {
		plan, err := FaultScenario("flaky", 21, 2.0)
		if err != nil {
			t.Fatal(err)
		}
		rc := DefaultResilience()
		rc.BaseLoss = 0.05
		eng, err := New(Config{Case: "C1", Resilience: rc, FaultPlan: plan})
		if err != nil {
			t.Fatal(err)
		}
		test := eng.TestSet()
		out := make([]event, 0, 50)
		for i := 0; i < 50; i++ {
			res, err := eng.ClassifyResult(test[i].Samples)
			ev := event{Res: res}
			if err != nil {
				ev.Err = err.Error()
			}
			out = append(out, ev)
		}
		return out
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("event %d diverged between identical seeded runs:\n  %+v\n  %+v", i, a[i], b[i])
			}
		}
		t.Fatal("runs diverged")
	}
	degraded := 0
	for _, ev := range a {
		if ev.Res.Degraded {
			degraded++
		}
	}
	if degraded == 0 {
		t.Error("the flaky scenario should degrade at least one event")
	}
}

// Without a policy the engine behaves exactly as before; with one and
// no faults, every result is full-fidelity.
func TestResilienceCleanRunIsFull(t *testing.T) {
	eng, err := New(Config{Case: "C1", Resilience: DefaultResilience()})
	if err != nil {
		t.Fatal(err)
	}
	test := eng.TestSet()
	plain, err := New(Config{Case: "C1"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		res, err := eng.ClassifyResult(test[i].Samples)
		if err != nil {
			t.Fatal(err)
		}
		if res.Degraded || res.Mode != ModeFull {
			t.Errorf("event %d degraded on a clean link: %+v", i, res)
		}
		want, err := plain.Classify(test[i].Samples)
		if err != nil {
			t.Fatal(err)
		}
		if res.Label != want {
			t.Errorf("event %d: resilient label %d, plain %d", i, res.Label, want)
		}
	}
	if plainRes, err := plain.ClassifyResult(test[0].Samples); err != nil || plainRes.Mode != ModeFull {
		t.Errorf("ClassifyResult without a policy: %+v, %v", plainRes, err)
	}
}

// FailFast surfaces the transfer failure instead of degrading, and the
// error chain unwraps through the engine to the typed causes.
func TestResilienceFailFastUnwraps(t *testing.T) {
	rc := DefaultResilience()
	rc.FailFast = true
	eng, err := New(Config{Case: "C1", Kind: TrivialCut, Resilience: rc, FaultPlan: outagePlan(3)})
	if err != nil {
		t.Fatal(err)
	}
	_, err = eng.Classify(eng.TestSet()[0].Samples)
	if err == nil {
		t.Fatal("FailFast under a hard outage should error")
	}
	var nores *xsystem.NoResultError
	if !errors.As(err, &nores) {
		t.Errorf("error chain should reach *xsystem.NoResultError: %v", err)
	}
	var down *faults.ErrLinkDown
	if !errors.As(err, &down) {
		t.Errorf("error chain should reach *faults.ErrLinkDown: %v", err)
	}
	// The failed attempt drained the battery: the ledger bills it. Once
	// the breaker opens, events spend nothing.
	st, err := eng.SubjectState()
	if err != nil {
		t.Fatal(err)
	}
	if !(nores.Outcome.SensorEnergy > 0) || st.EnergySpentJoules != nores.Outcome.SensorEnergy {
		t.Errorf("ledger %g J after a failed attempt that spent %g J", st.EnergySpentJoules, nores.Outcome.SensorEnergy)
	}
	spent := st.EnergySpentJoules
	for i := 0; i < 10 && eng.SLOReport().Breaker != "open"; i++ {
		if _, err = eng.Classify(eng.TestSet()[0].Samples); errors.As(err, &nores) {
			spent += nores.Outcome.SensorEnergy
		}
	}
	if _, err = eng.Classify(eng.TestSet()[0].Samples); err == nil || errors.As(err, &nores) {
		t.Fatalf("open breaker under FailFast: got %v, want a bare link-down error", err)
	}
	if st, _ = eng.SubjectState(); st.EnergySpentJoules != spent {
		t.Errorf("ledger %g J, want %g J: a breaker-open event spent energy", st.EnergySpentJoules, spent)
	}
}

// Brownout: in-sensor compute is gone but sensing and the link survive,
// so the engine falls back to the software ensemble on the aggregator.
func TestResilienceBrownoutSoftwareFallback(t *testing.T) {
	plan := &FaultPlan{Windows: []FaultWindow{{Kind: "brownout", StartSeconds: 0, EndSeconds: 3600}}}
	eng, err := New(Config{Case: "C1", FaultPlan: plan})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.ClassifyResult(eng.TestSet()[0].Samples)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded || res.Mode != ModeFallbackSoftware {
		t.Errorf("brownout result %+v, want degraded fallback-software", res)
	}
}

// An event no rung can serve still drained the battery. Under the flaky
// scenario (C1, seed 8, 15 s) brownouts overlap outages, so some events
// find no path to a classification: each returns its bill beside the
// error, degraded on the software rung it failed on, and the energy
// ledger books it with every served event's.
func TestResilienceUnservedEventKeepsBill(t *testing.T) {
	plan, err := FaultScenario("flaky", 8, 15)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(Config{Case: "C1", Resilience: DefaultResilience(), FaultPlan: plan})
	if err != nil {
		t.Fatal(err)
	}
	test := eng.TestSet()
	var booked float64
	unserved := 0
	for i := 0; i < 240; i++ {
		res, err := eng.ClassifyResult(test[i%len(test)].Samples)
		booked += res.SensorEnergyJoules
		if err == nil {
			continue
		}
		if !errors.Is(err, adaptive.ErrNoPath) {
			t.Fatalf("event %d: %v", i, err)
		}
		unserved++
		if !res.Degraded || res.Mode != ModeFallbackSoftware || !(res.SensorEnergyJoules > 0) || !(res.SpentSeconds > 0) {
			t.Errorf("event %d: unserved event's result %+v, want its degraded fallback-software bill", i, res)
		}
	}
	if unserved == 0 {
		t.Fatal("no event went unserved; the scenario no longer overlaps a brownout with an outage")
	}
	t.Logf("%d of 240 events unserved", unserved)
	st, err := eng.SubjectState()
	if err != nil {
		t.Fatal(err)
	}
	if st.EnergySpentJoules != booked {
		t.Errorf("energy ledger %g J, want the %g J the events billed", st.EnergySpentJoules, booked)
	}
}

// ClassifyBatch and Stream route through the resilience ladder too:
// degraded answers are answers.
func TestResilienceBatchAndStream(t *testing.T) {
	eng, err := New(Config{Case: "C1", FaultPlan: outagePlan(5)})
	if err != nil {
		t.Fatal(err)
	}
	test := eng.TestSet()
	segs := make([][]float64, 10)
	for i := range segs {
		segs[i] = test[i].Samples
	}
	labels, err := eng.ClassifyBatch(segs)
	if err != nil {
		t.Fatalf("batch under outage: %v", err)
	}
	if len(labels) != len(segs) {
		t.Fatalf("batch returned %d labels for %d segments", len(labels), len(segs))
	}

	in := make(chan []float64)
	go func() {
		defer close(in)
		for _, s := range segs {
			in <- s
		}
	}()
	i := 0
	for r := range eng.Stream(in) {
		if r.Err != nil {
			t.Fatalf("stream event %d: %v", r.Index, r.Err)
		}
		if r.Index != i {
			t.Fatalf("stream order broken: %d at position %d", r.Index, i)
		}
		if !r.Result.Degraded {
			t.Errorf("stream event %d not degraded under outage", r.Index)
		}
		i++
	}
	if i != len(segs) {
		t.Fatalf("stream returned %d results", i)
	}
}

// Stream without a policy runs the Classify walk per event and reports
// ModeFull.
func TestStreamWithoutPolicy(t *testing.T) {
	eng, err := New(Config{Case: "C1"})
	if err != nil {
		t.Fatal(err)
	}
	test := eng.TestSet()
	in := make(chan []float64)
	go func() {
		defer close(in)
		for i := 0; i < 10; i++ {
			in <- test[i].Samples
		}
	}()
	n := 0
	for r := range eng.Stream(in) {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		if r.Result.Mode != ModeFull || r.Result.Degraded {
			t.Errorf("clean stream result %d: %+v", r.Index, r.Result)
		}
		n++
	}
	if n != 10 {
		t.Fatalf("stream returned %d results", n)
	}
}

// A segment that cannot be classified fails only its own event: the
// error arrives at its index, the other segments are classified as
// Classify would, and the producer is never left blocked.
func TestStreamBadSegment(t *testing.T) {
	eng, err := New(Config{Case: "C1"})
	if err != nil {
		t.Fatal(err)
	}
	test := eng.TestSet()
	segs := [][]float64{test[0].Samples, {1, 2, 3}, test[1].Samples, test[2].Samples}
	in := make(chan []float64)
	fed := make(chan struct{})
	go func() {
		defer close(fed)
		for _, s := range segs {
			in <- s
		}
		close(in)
	}()
	var got []StreamResult
	for r := range eng.Stream(in) {
		got = append(got, r)
	}
	select {
	case <-fed:
	case <-time.After(10 * time.Second):
		t.Fatal("the producer is still blocked after the stream closed")
	}
	if len(got) != len(segs) {
		t.Fatalf("stream returned %d results for %d segments: %+v", len(got), len(segs), got)
	}
	for i, r := range got {
		if r.Index != i {
			t.Fatalf("result %d has index %d", i, r.Index)
		}
		if i == 1 {
			if r.Err == nil {
				t.Error("the wrong-length segment must fail its own event")
			}
			continue
		}
		if r.Err != nil {
			t.Fatalf("segment %d: %v", i, r.Err)
		}
		want, err := eng.Classify(segs[i])
		if err != nil {
			t.Fatal(err)
		}
		if r.Result.Label != want {
			t.Errorf("segment %d: stream label %d, Classify %d", i, r.Result.Label, want)
		}
	}
}

func TestStreamEmptyInput(t *testing.T) {
	eng, err := New(Config{Case: "C1"})
	if err != nil {
		t.Fatal(err)
	}
	in := make(chan []float64)
	close(in)
	for r := range eng.Stream(in) {
		t.Errorf("empty stream produced %+v", r)
	}
}

func TestResilienceConfigValidation(t *testing.T) {
	bad := []Config{
		{Case: "C1", Resilience: &Resilience{DeadlineSeconds: math.NaN()}},
		{Case: "C1", Resilience: &Resilience{MaxRetries: -1}},
		{Case: "C1", Resilience: &Resilience{BaseLoss: math.NaN()}},
		{Case: "C1", Resilience: &Resilience{BaseLoss: 1}},
		{Case: "C1", FaultPlan: &FaultPlan{Windows: []FaultWindow{{Kind: "nope", EndSeconds: 1}}}},
		{Case: "C1", FaultPlan: &FaultPlan{Windows: []FaultWindow{{Kind: "link-outage", StartSeconds: 2, EndSeconds: 1}}}},
		{Case: "C1", FaultPlan: &FaultPlan{Windows: []FaultWindow{{Kind: "loss-burst", EndSeconds: 1, Loss: math.NaN()}}}},
		{Case: "C1", SampleRateHz: math.NaN()},
		{Case: "C1", SampleRateHz: math.Inf(1)},
		{Case: "C1", SampleRateHz: -100},
		{Case: "C1", PruneKeep: math.NaN()},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d should be rejected: %+v", i, cfg)
		}
	}
}

func TestFaultScenarioPublic(t *testing.T) {
	if len(FaultScenarios()) == 0 {
		t.Fatal("no scenarios listed")
	}
	for _, name := range FaultScenarios() {
		p, err := FaultScenario(name, 4, 10)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(p.Windows) == 0 {
			t.Errorf("%s: empty plan", name)
		}
		if p.Seed != 4 {
			t.Errorf("%s: seed %d not carried", name, p.Seed)
		}
	}
	if _, err := FaultScenario("nope", 1, 10); err == nil {
		t.Error("unknown scenario should error")
	}
	if _, err := FaultScenario("outage", 1, -5); err == nil {
		t.Error("negative horizon should error")
	}
}

func TestDegradeModeStrings(t *testing.T) {
	want := map[DegradeMode]string{
		ModeFull:             "full",
		ModePartial:          "partial",
		ModeSensorLocal:      "sensor-local",
		ModeFallbackSensor:   "fallback-sensor",
		ModeFallbackSoftware: "fallback-software",
	}
	for m, s := range want {
		if m.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(m), m.String(), s)
		}
	}
	if DegradeMode(99).String() == "" {
		t.Error("unknown mode should still render")
	}
}

// lossStormPlan covers the middle of a ~12.5s run (200 E2 events at
// 62.5 ms) with a loss burst heavy enough to price the E2 cross-end
// cut above the in-sensor anchor (the crossover sits near loss 0.8).
func lossStormPlan(seed int64) *FaultPlan {
	return &FaultPlan{
		Windows: []FaultWindow{{Kind: "loss-burst", StartSeconds: 2.5, EndSeconds: 10, Loss: 0.9}},
		Seed:    seed,
	}
}

// The engine-level acceptance of adaptive repartitioning: under a
// seeded loss storm the controller retreats the active cut toward the
// in-sensor anchor, and every public surface (RecutLog, AdaptiveStatus,
// Placement, Report, the active-cut gauge) follows the hot swap.
func TestEngineAdaptiveRecut(t *testing.T) {
	eng, err := New(Config{Case: "E2", Wireless: WirelessModel3,
		FaultPlan: lossStormPlan(7), Adaptive: DefaultAdaptive()})
	if err != nil {
		t.Fatal(err)
	}
	static := eng.Report()
	test := eng.TestSet()
	for i := 0; i < 200; i++ {
		if _, err := eng.ClassifyResult(test[i%len(test)].Samples); err != nil {
			t.Fatalf("event %d: %v (adaptive engine must degrade, not error)", i, err)
		}
	}
	st := eng.AdaptiveStatus()
	t.Logf("status: %+v", st)
	log := eng.RecutLog()
	for _, d := range log {
		t.Logf("decision: %s@%.2fs loss=%.2f outage=%.2f cells %d->%d",
			d.Kind, d.AtSeconds, d.EstimatedLoss, d.EstimatedOutage,
			d.SensorCellsBefore, d.SensorCellsAfter)
	}
	if !st.Enabled {
		t.Fatal("AdaptiveStatus not enabled on an adaptive engine")
	}
	if st.Swaps == 0 {
		t.Fatal("no hot swap under the loss storm")
	}
	// The storm must drive at least one retreat to the in-sensor anchor
	// (every cell on the sensor), and the recovery must bring the engine
	// back off it.
	retreated := false
	for _, d := range log {
		if d.Kind == "swap" && d.SensorCellsAfter == static.Cells {
			retreated = true
		}
	}
	if !retreated {
		t.Error("no swap retreated to the in-sensor cut during the storm")
	}
	if st.SensorCells == static.Cells {
		t.Error("engine still parked on the in-sensor cut after the channel recovered")
	}
	// Report and the headline gauges describe the currently active cut.
	if got := eng.Report().SensorCells; got != st.SensorCells {
		t.Errorf("Report sensor cells %d != active cut %d", got, st.SensorCells)
	}
	if got := eng.Observer().MetricValue("xpro_active_cut_sensor_cells"); int(got) != st.SensorCells {
		t.Errorf("active-cut gauge %v != active cut %d", got, st.SensorCells)
	}
	if eng.Observer().MetricValue("xpro_recut_swaps_total") != float64(st.Swaps) {
		t.Error("swap counter disagrees with the decision log")
	}

	// Seeded replay: a second engine over the same plan reproduces the
	// identical decision log.
	eng2, err := New(Config{Case: "E2", Wireless: WirelessModel3,
		FaultPlan: lossStormPlan(7), Adaptive: DefaultAdaptive()})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if _, err := eng2.ClassifyResult(test[i%len(test)].Samples); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(log, eng2.RecutLog()) {
		t.Errorf("replay diverged:\n  run A: %+v\n  run B: %+v", log, eng2.RecutLog())
	}
}
