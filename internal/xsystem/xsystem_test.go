package xsystem

import (
	"math"
	"math/rand"
	"testing"

	"xpro/internal/aggregator"
	"xpro/internal/biosig"
	"xpro/internal/celllib"
	"xpro/internal/ensemble"
	"xpro/internal/partition"
	"xpro/internal/sensornode"
	"xpro/internal/topology"
	"xpro/internal/wireless"
)

type fixture struct {
	ds    *biosig.Dataset
	test  *biosig.Dataset
	ens   *ensemble.Ensemble
	graph *topology.Graph
}

var cached *fixture

func getFixture(t testing.TB) *fixture {
	t.Helper()
	if cached != nil {
		return cached
	}
	spec, err := biosig.CaseBySymbol("E2")
	if err != nil {
		t.Fatal(err)
	}
	d := biosig.Generate(spec)
	rng := rand.New(rand.NewSource(11))
	train, test := d.Split(0.75, rng)
	cfg := ensemble.DefaultConfig(11)
	cfg.Candidates = 10
	cfg.Folds = 3
	cfg.TopFrac = 0.3
	ens, err := ensemble.Train(train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	g, err := topology.Build(ens, d.SegLen)
	if err != nil {
		t.Fatal(err)
	}
	cached = &fixture{ds: d, test: test, ens: ens, graph: g}
	return cached
}

func newSystem(t testing.TB, f *fixture, p partition.Placement) *System {
	t.Helper()
	s, err := New(f.graph, f.ens, celllib.P90, wireless.Model2(), aggregator.CortexA8(), p, sensornode.DefaultSampleRateHz)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewValidation(t *testing.T) {
	f := getFixture(t)
	if _, err := New(f.graph, f.ens, celllib.P90, wireless.Model2(), aggregator.CortexA8(), partition.Placement{partition.Sensor}, sensornode.DefaultSampleRateHz); err == nil {
		t.Error("short placement should error")
	}
	if _, err := New(f.graph, f.ens, celllib.P90, wireless.Model2(), aggregator.CPU{}, partition.InSensor(f.graph), sensornode.DefaultSampleRateHz); err == nil {
		t.Error("invalid CPU should error")
	}
	if _, err := New(f.graph, f.ens, celllib.P90, wireless.Model2(), aggregator.CortexA8(), partition.InSensor(f.graph), 0); err == nil {
		t.Error("zero sample rate should error")
	}
}

// The three engines must agree functionally with the pure-software
// ensemble: per-segment agreement stays high (fixed-point arithmetic and
// wire quantization may flip borderline scores) and, crucially,
// classification accuracy is preserved — quantization noise must not
// cost correctness.
func TestEnginesAgreeWithEnsemble(t *testing.T) {
	f := getFixture(t)
	placements := map[string]partition.Placement{
		"sensor":     partition.InSensor(f.graph),
		"aggregator": partition.InAggregator(f.graph),
		"trivial":    partition.Trivial(f.graph),
	}
	n := 150
	for name, p := range placements {
		s := newSystem(t, f, p)
		agree, engCorrect, ensCorrect := 0, 0, 0
		for i := 0; i < n; i++ {
			seg := f.test.Segs[i]
			got, err := s.Classify(seg)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			want, err := f.ens.Predict(seg)
			if err != nil {
				t.Fatal(err)
			}
			if got == want {
				agree++
			}
			if got == seg.Label {
				engCorrect++
			}
			if want == seg.Label {
				ensCorrect++
			}
		}
		if frac := float64(agree) / float64(n); frac < 0.85 {
			t.Errorf("%s engine agrees with ensemble on %.1f%%, want ≥ 85%%", name, frac*100)
		}
		accDrop := float64(ensCorrect-engCorrect) / float64(n)
		if accDrop > 0.05 {
			t.Errorf("%s engine loses %.1f%% accuracy to quantization, want ≤ 5%%", name, accDrop*100)
		}
	}
}

// The aggregator engine runs everything in float64, so it must agree
// with the ensemble exactly.
func TestAggregatorEngineExact(t *testing.T) {
	f := getFixture(t)
	s := newSystem(t, f, partition.InAggregator(f.graph))
	for i := 0; i < 100; i++ {
		seg := f.test.Segs[i]
		got, err := s.Classify(seg)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := f.ens.Predict(seg)
		if got != want {
			t.Fatalf("segment %d: aggregator engine %d != ensemble %d", i, got, want)
		}
	}
}

func TestCrossEndAccuracy(t *testing.T) {
	f := getFixture(t)
	prob := newSystem(t, f, partition.InSensor(f.graph)).Problem()
	p, _ := prob.MinCut()
	s := newSystem(t, f, p)
	acc, err := s.Accuracy(&biosig.Dataset{SegLen: f.test.SegLen, Segs: f.test.Segs[:200]})
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.85 {
		t.Errorf("cross-end accuracy = %v, want ≥ 0.85", acc)
	}
}

func TestClassifyRejectsWrongLength(t *testing.T) {
	f := getFixture(t)
	s := newSystem(t, f, partition.InSensor(f.graph))
	if _, err := s.Classify(biosig.Segment{Samples: []float64{1, 2, 3}}); err == nil {
		t.Error("wrong segment length should error")
	}
}

func TestClassifyNilEnsemble(t *testing.T) {
	f := getFixture(t)
	s, err := New(f.graph, nil, celllib.P90, wireless.Model2(), aggregator.CortexA8(), partition.InSensor(f.graph), sensornode.DefaultSampleRateHz)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Classify(f.test.Segs[0]); err == nil {
		t.Error("a cost-analysis-only system must reject Classify")
	}
}

// Energy accounting must match the generator's pricing model exactly —
// the s-t graph and the simulator describe the same machine.
func TestEnergyMatchesProblem(t *testing.T) {
	f := getFixture(t)
	for _, p := range []partition.Placement{
		partition.InSensor(f.graph),
		partition.InAggregator(f.graph),
		partition.Trivial(f.graph),
	} {
		s := newSystem(t, f, p)
		got := s.EnergyPerEvent().SensorTotal()
		want := s.Problem().SensorEnergy(p)
		if math.Abs(got-want) > 1e-15+1e-9*want {
			t.Errorf("sensor energy %v != problem pricing %v", got, want)
		}
	}
}

func TestEnergyBreakdownShape(t *testing.T) {
	f := getFixture(t)
	// Aggregator engine: sensor energy is almost all transmission.
	ea := newSystem(t, f, partition.InAggregator(f.graph)).EnergyPerEvent()
	if ea.SensorCompute != 0 {
		t.Error("aggregator engine must have no sensor compute")
	}
	if ea.SensorTx <= 0 || ea.AggRx <= 0 || ea.AggCompute <= 0 {
		t.Error("aggregator engine must pay raw tx, rx and software compute")
	}
	// Sensor engine: wireless is only the classification result (§5.4:
	// "hardly visible").
	es := newSystem(t, f, partition.InSensor(f.graph)).EnergyPerEvent()
	if es.SensorCompute <= 0 {
		t.Error("sensor engine must pay compute")
	}
	if es.SensorWireless() > 0.05*es.SensorTotal() {
		t.Errorf("sensor engine wireless share %v should be tiny", es.SensorWireless()/es.SensorTotal())
	}
	if es.AggCompute != 0 {
		t.Error("sensor engine must have no aggregator compute")
	}
}

func TestDelayBreakdownShape(t *testing.T) {
	f := getFixture(t)
	da := newSystem(t, f, partition.InAggregator(f.graph)).DelayPerEvent()
	ds := newSystem(t, f, partition.InSensor(f.graph)).DelayPerEvent()
	if da.FrontEnd != 0 {
		t.Error("aggregator engine has no front-end compute delay")
	}
	if da.Wireless <= 0 || da.BackEnd <= 0 {
		t.Error("aggregator engine needs wireless + back-end delay")
	}
	if ds.BackEnd != 0 {
		t.Error("sensor engine has no back-end delay")
	}
	if ds.FrontEnd <= 0 {
		t.Error("sensor engine needs front-end delay")
	}
	// §5.3: all engines process an event within real-time bounds (< 4 ms).
	for name, d := range map[string]Delay{"aggregator": da, "sensor": ds} {
		if d.Total() >= 4e-3 {
			t.Errorf("%s engine delay %v ≥ 4 ms", name, d.Total())
		}
	}
	if got := (Delay{FrontEnd: 1, Wireless: 2, BackEnd: 3}).Total(); got != 6 {
		t.Errorf("Delay.Total = %v", got)
	}
}

// The front-end critical path must not exceed the sum of sensor cell
// delays (parallel hardware can only help), and must be at least the
// slowest single cell.
func TestFrontEndCriticalPathBounds(t *testing.T) {
	f := getFixture(t)
	s := newSystem(t, f, partition.InSensor(f.graph))
	d := s.DelayPerEvent()
	var sum, maxCell float64
	for i := range f.graph.Cells {
		cd := s.HW.Delay(topology.CellID(i))
		sum += cd
		if cd > maxCell {
			maxCell = cd
		}
	}
	if d.FrontEnd > sum {
		t.Errorf("critical path %v exceeds serial sum %v", d.FrontEnd, sum)
	}
	if d.FrontEnd < maxCell {
		t.Errorf("critical path %v shorter than slowest cell %v", d.FrontEnd, maxCell)
	}
}

func TestMinCutBeatsOrMatchesBaselines(t *testing.T) {
	f := getFixture(t)
	prob := newSystem(t, f, partition.InSensor(f.graph)).Problem()
	p, e := prob.MinCut()
	for _, base := range []partition.Placement{partition.InSensor(f.graph), partition.InAggregator(f.graph)} {
		if e > prob.SensorEnergy(base)+1e-12 {
			t.Error("cross-end cut worse than a single-end engine")
		}
	}
	_ = p
}

func TestLifetimes(t *testing.T) {
	f := getFixture(t)
	s := newSystem(t, f, partition.InSensor(f.graph))
	h, err := s.SensorLifetimeHours()
	if err != nil || h <= 0 {
		t.Fatalf("sensor lifetime = %v, %v", h, err)
	}
	ah, err := s.AggregatorLifetimeHours()
	if err != nil || ah <= 0 {
		t.Fatalf("aggregator lifetime = %v, %v", ah, err)
	}
	// §5.6: the aggregator battery sustains XPro for > 52 hours.
	if ah < 52 {
		t.Errorf("aggregator lifetime %v h, paper expects > 52 h", ah)
	}
	if s.EventsPerSecond() <= 0 {
		t.Error("event rate must be positive")
	}
}

func BenchmarkClassifyCrossEnd(b *testing.B) {
	f := getFixture(b)
	prob := newSystem(b, f, partition.InSensor(f.graph)).Problem()
	p, _ := prob.MinCut()
	s := newSystem(b, f, p)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Classify(f.test.Segs[i%len(f.test.Segs)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEnergyPerEvent(b *testing.B) {
	f := getFixture(b)
	s := newSystem(b, f, partition.Trivial(f.graph))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.EnergyPerEvent()
	}
}

func TestMaxSustainableEventRate(t *testing.T) {
	f := getFixture(t)
	for name, p := range map[string]partition.Placement{
		"sensor":     partition.InSensor(f.graph),
		"aggregator": partition.InAggregator(f.graph),
		"trivial":    partition.Trivial(f.graph),
	} {
		s := newSystem(t, f, p)
		rate := s.MaxSustainableEventRate()
		if rate <= 0 || math.IsInf(rate, 1) {
			t.Fatalf("%s: rate %v", name, rate)
		}
		// Throughput must be at least 1/(end-to-end latency): pipelining
		// can only help.
		if min := 1 / s.DelayPerEvent().Total(); rate < min-1e-9 {
			t.Errorf("%s: rate %v below latency bound %v", name, rate, min)
		}
		// And the configured event rate must be sustainable, or the
		// whole evaluation would be nonsense.
		if rate < s.EventsPerSecond() {
			t.Errorf("%s: configured rate %v exceeds sustainable %v", name, s.EventsPerSecond(), rate)
		}
	}
}

func TestMaxSampleRateForLifetime(t *testing.T) {
	f := getFixture(t)
	s := newSystem(t, f, partition.InSensor(f.graph))
	// The configured setup's own lifetime must be achievable at ≈ the
	// configured rate.
	life, err := s.SensorLifetimeHours()
	if err != nil {
		t.Fatal(err)
	}
	rate, err := s.MaxSampleRateForLifetime(life)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rate-s.SampleRateHz) > 0.05*s.SampleRateHz {
		t.Errorf("rate for own lifetime = %v Hz, want ≈ %v", rate, s.SampleRateHz)
	}
	// Halving the lifetime target roughly doubles the allowed rate
	// (sensing floor is small), up to the pipelining cap.
	rate2, err := s.MaxSampleRateForLifetime(life / 2)
	if err != nil {
		t.Fatal(err)
	}
	if rate2 <= rate {
		t.Errorf("smaller target must allow a higher rate (%v vs %v)", rate2, rate)
	}
	if _, err := s.MaxSampleRateForLifetime(0); err == nil {
		t.Error("non-positive target should error")
	}
	if _, err := s.MaxSampleRateForLifetime(1e12); err == nil {
		t.Error("unreachable target should error")
	}
}
