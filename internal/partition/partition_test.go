package partition

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"xpro/internal/biosig"
	"xpro/internal/celllib"
	"xpro/internal/ensemble"
	"xpro/internal/sensornode"
	"xpro/internal/topology"
	"xpro/internal/wireless"
)

var (
	cachedProblem *Problem
	cachedGraph   *topology.Graph
)

func testProblem(t testing.TB) *Problem {
	t.Helper()
	if cachedProblem != nil {
		return cachedProblem
	}
	spec, err := biosig.CaseBySymbol("E1")
	if err != nil {
		t.Fatal(err)
	}
	d := biosig.Generate(spec)
	rng := rand.New(rand.NewSource(3))
	train, _ := d.Split(0.75, rng)
	cfg := ensemble.DefaultConfig(3)
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
	hw := sensornode.Characterize(g, celllib.P90)
	sensing, err := sensornode.SensingEnergyPerEvent(d.SegLen, sensornode.DefaultSampleRateHz)
	if err != nil {
		t.Fatal(err)
	}
	cachedGraph = g
	cachedProblem = NewProblem(g, hw, wireless.Model2(), sensing, nil)
	return cachedProblem
}

func TestEndString(t *testing.T) {
	if Sensor.String() != "sensor" || Aggregator.String() != "aggregator" {
		t.Error("end names wrong")
	}
}

func TestBaselinePlacements(t *testing.T) {
	pr := testProblem(t)
	g := pr.Graph
	s := InSensor(g)
	a := InAggregator(g)
	ns, _ := s.Counts()
	_, na := a.Counts()
	if ns != len(g.Cells) || na != len(g.Cells) {
		t.Error("baseline placements must cover all cells on one end")
	}
	tr := Trivial(g)
	for _, c := range g.Cells {
		onSensor := tr.OnSensor(c.ID)
		wantSensor := c.Role != topology.RoleSVM && c.Role != topology.RoleFusion
		if onSensor != wantSensor {
			t.Errorf("trivial cut: %s on sensor=%v, want %v", c.Name, onSensor, wantSensor)
		}
	}
	if !s.Equal(s) || s.Equal(a) {
		t.Error("Equal broken")
	}
	if s.Equal(Placement{Sensor}) {
		t.Error("Equal must compare lengths")
	}
}

// The structural guarantee of §3.2.2: the min cut never exceeds the two
// single-end extreme cuts, nor any other cut we can construct.
func TestMinCutDominatesBaselines(t *testing.T) {
	pr := testProblem(t)
	p, e := pr.MinCut()
	if got := pr.SensorEnergy(p); math.Abs(got-e) > 1e-15 {
		t.Fatalf("MinCut energy %v != SensorEnergy %v", e, got)
	}
	for _, base := range []Placement{InSensor(pr.Graph), InAggregator(pr.Graph), Trivial(pr.Graph)} {
		if be := pr.SensorEnergy(base); e > be+1e-12 {
			t.Errorf("min cut (%v J) worse than a baseline cut (%v J)", e, be)
		}
	}
	if !pr.GroupedOK(p) {
		t.Error("min cut violates the grouped constraint")
	}
}

// Property: the min cut is no worse than random grouped placements.
func TestQuickMinCutIsOptimalAmongRandom(t *testing.T) {
	pr := testProblem(t)
	_, minE := pr.MinCut()
	readers := pr.Graph.SourceReaders()
	readerSet := make(map[topology.CellID]bool)
	for _, id := range readers {
		readerSet[id] = true
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := make(Placement, len(pr.Graph.Cells))
		groupEnd := End(rng.Intn(2))
		for i := range p {
			if readerSet[topology.CellID(i)] {
				p[i] = groupEnd
			} else {
				p[i] = End(rng.Intn(2))
			}
		}
		return pr.SensorEnergy(p) >= minE-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// The s-t graph's cut capacity must agree with the direct energy model:
// price the three named grouped placements through both paths.
func TestGraphAgreesWithDirectModel(t *testing.T) {
	pr := testProblem(t)
	g := pr.Graph
	fg := pr.stGraph(0)
	for _, named := range []struct {
		name string
		p    Placement
	}{
		{"sensor", InSensor(g)},
		{"aggregator", InAggregator(g)},
		{"trivial", Trivial(g)},
	} {
		side := make([]bool, fg.N())
		side[0] = true // F
		// D sits with the group: on the sensor side iff raw not sent.
		rawSent := false
		for _, id := range g.SourceReaders() {
			if !named.p.OnSensor(id) {
				rawSent = true
			}
		}
		side[2] = !rawSent
		for i := range g.Cells {
			side[3+i] = named.p.OnSensor(topology.CellID(i))
		}
		// Aux transfer nodes settle greedily: tx aux joins the sink side
		// unless producer and all consumers are on the sensor side; rx
		// aux joins the source side iff any consumer is on it... resolve
		// by scanning groups in order, mirroring stGraph's layout.
		aux := 3 + len(g.Cells)
		for _, tg := range g.TransferGroups() {
			if len(tg.Consumers) == 1 {
				continue
			}
			allSensor := named.p.OnSensor(tg.From)
			anySensorConsumer := false
			for _, c := range tg.Consumers {
				if !named.p.OnSensor(c) {
					allSensor = false
				} else {
					anySensorConsumer = true
				}
			}
			side[aux] = allSensor && named.p.OnSensor(tg.From) // tx aux
			side[aux+1] = anySensorConsumer                    // rx aux
			aux += 2
		}
		got := fg.CutValue(side)
		want := pr.SensorEnergy(named.p) - pr.SensingEnergy
		if math.Abs(got-want) > 1e-12+1e-9*want {
			t.Errorf("%s cut: graph capacity %v, direct model %v", named.name, got, want)
		}
	}
}

func TestGenerateRespectsDelayLimit(t *testing.T) {
	pr := testProblem(t)
	// Synthetic delay model: penalize aggregator cells so the constraint
	// binds; the limit only admits placements with ≤ 10 aggregator cells.
	delayOf := func(p Placement) float64 {
		_, na := p.Counts()
		return float64(na)
	}
	res, err := pr.Generate(delayOf, 10)
	if err != nil {
		t.Fatal(err)
	}
	if res.Delay > 10 {
		t.Errorf("generated placement delay %v exceeds limit", res.Delay)
	}
	if res.Energy != pr.SensorEnergy(res.Placement) {
		t.Error("reported energy mismatch")
	}
}

func TestGenerateFallsBack(t *testing.T) {
	pr := testProblem(t)
	// Only the all-sensor engine has zero aggregator cells; a limit of 0
	// forces the fallback path.
	delayOf := func(p Placement) float64 {
		_, na := p.Counts()
		return float64(na)
	}
	res, err := pr.Generate(delayOf, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Placement.Equal(InSensor(pr.Graph)) {
		t.Error("fallback should return the in-sensor engine")
	}
}

func TestGenerateUnconstrainedMatchesMinCut(t *testing.T) {
	pr := testProblem(t)
	res, err := pr.Generate(func(Placement) float64 { return 0 }, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, minE := pr.MinCut()
	if math.Abs(res.Energy-minE) > 1e-15 {
		t.Errorf("unconstrained generate %v != min cut %v", res.Energy, minE)
	}
	if res.Fallback {
		t.Error("unconstrained generate must not fall back")
	}
}

func TestGenerateErrors(t *testing.T) {
	pr := testProblem(t)
	if _, err := pr.Generate(nil, 1); err == nil {
		t.Error("nil delay model should error")
	}
	if _, err := pr.Generate(func(Placement) float64 { return 1 }, 0); err == nil {
		t.Error("zero limit should error")
	}
	if _, err := pr.Generate(func(Placement) float64 { return 99 }, 1); err == nil {
		t.Error("universally infeasible limit should error")
	}
}

func TestGreedyRepair(t *testing.T) {
	pr := testProblem(t)
	g := pr.Graph
	delayOf := func(p Placement) float64 {
		_, na := p.Counts()
		return float64(na)
	}
	start := InAggregator(g)
	traj := pr.greedyRepair(start, delayOf, 3)
	if len(traj) == 0 {
		t.Fatal("repair produced no steps")
	}
	prev := delayOf(start)
	for i, p := range traj {
		d := delayOf(p)
		if d >= prev {
			t.Fatalf("step %d: delay %v did not decrease from %v", i, d, prev)
		}
		prev = d
		if !pr.GroupedOK(p) {
			t.Fatalf("step %d violates the grouped constraint", i)
		}
	}
	if final := traj[len(traj)-1]; delayOf(final) > 3 {
		t.Errorf("repair stopped at delay %v, limit 3 was reachable", delayOf(final))
	}
}

// Generate must use repair candidates: with a per-aggregator-cell delay
// model and a limit between the sweep's breakpoints, the result should
// be an interior placement, not a single-end fallback.
func TestGenerateUsesRepair(t *testing.T) {
	pr := testProblem(t)
	delayOf := func(p Placement) float64 {
		_, na := p.Counts()
		return float64(na)
	}
	_, naMin := InAggregator(pr.Graph).Counts()
	limit := float64(naMin) / 2 // halfway: neither single-end nor min cut
	res, err := pr.Generate(delayOf, limit)
	if err != nil {
		t.Fatal(err)
	}
	if res.Fallback {
		t.Error("repair should have produced a feasible interior candidate")
	}
	if res.Delay > limit {
		t.Errorf("result delay %v exceeds limit %v", res.Delay, limit)
	}
	// The result must beat the trivially feasible in-sensor engine
	// whenever any cheaper feasible placement exists; at minimum it must
	// not be worse.
	if inS := pr.SensorEnergy(InSensor(pr.Graph)); res.Energy > inS+1e-12 {
		t.Errorf("result energy %v worse than in-sensor %v", res.Energy, inS)
	}
}

func TestNamedCuts(t *testing.T) {
	pr := testProblem(t)
	cuts := pr.NamedCuts()
	if len(cuts) != 4 {
		t.Fatalf("named cuts = %d, want 4", len(cuts))
	}
	names := make(map[string]bool)
	for i, c := range cuts {
		names[c.Name] = true
		if i > 0 && cuts[i-1].Energy > c.Energy {
			t.Error("named cuts must be sorted by energy")
		}
	}
	for _, want := range []string{"aggregator", "trivial", "sensor", "cross"} {
		if !names[want] {
			t.Errorf("missing cut %q", want)
		}
	}
	if cuts[0].Name != "cross" && cuts[0].Energy != pr.SensorEnergy(cuts[0].Placement) {
		t.Error("cheapest cut inconsistent")
	}
}

func TestGroupedOK(t *testing.T) {
	pr := testProblem(t)
	g := pr.Graph
	if !pr.GroupedOK(InSensor(g)) || !pr.GroupedOK(InAggregator(g)) {
		t.Error("single-end placements are trivially grouped")
	}
	readers := g.SourceReaders()
	if len(readers) >= 2 {
		p := InSensor(g)
		p[readers[0]] = Aggregator
		if pr.GroupedOK(p) {
			t.Error("split source readers must violate GroupedOK")
		}
	}
}

func BenchmarkMinCut(b *testing.B) {
	pr := testProblem(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pr.MinCut()
	}
}

func BenchmarkGenerate(b *testing.B) {
	pr := testProblem(b)
	delayOf := func(p Placement) float64 {
		_, na := p.Counts()
		return float64(na)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pr.Generate(delayOf, float64(len(pr.Graph.Cells))); err != nil {
			b.Fatal(err)
		}
	}
}

// For a minimum cut, flipping any single cell (or the grouped readers as
// a unit) can never reduce sensor energy.
func TestExplainMinCutNonNegative(t *testing.T) {
	pr := testProblem(t)
	p, base := pr.MinCut()
	sens := pr.Explain(p)
	if len(sens) != len(pr.Graph.Cells) {
		t.Fatalf("sensitivities = %d, want %d", len(sens), len(pr.Graph.Cells))
	}
	for _, s := range sens {
		if s.DeltaEnergy < -1e-12 {
			t.Errorf("cell %d: flipping reduces energy by %v — cut not minimal", s.Cell, -s.DeltaEnergy)
		}
	}
	_ = base
}

// Grouped readers report one shared delta.
func TestExplainGroupedShared(t *testing.T) {
	pr := testProblem(t)
	p := InSensor(pr.Graph)
	sens := pr.Explain(p)
	readers := pr.Graph.SourceReaders()
	if len(readers) < 2 {
		t.Skip("needs ≥ 2 source readers")
	}
	first := sens[readers[0]].DeltaEnergy
	for _, id := range readers[1:] {
		if sens[id].DeltaEnergy != first {
			t.Error("grouped readers must share one sensitivity")
		}
	}
}
