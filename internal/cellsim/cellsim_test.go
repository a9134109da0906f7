package cellsim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"xpro/internal/aggregator"
	"xpro/internal/biosig"
	"xpro/internal/celllib"
	"xpro/internal/ensemble"
	"xpro/internal/partition"
	"xpro/internal/sensornode"
	"xpro/internal/topology"
	"xpro/internal/wireless"
	"xpro/internal/xsystem"
)

type fixture struct {
	graph *topology.Graph
	hw    *sensornode.Hardware
	sys   *xsystem.System
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
	rng := rand.New(rand.NewSource(17))
	train, _ := d.Split(0.75, rng)
	cfg := ensemble.DefaultConfig(17)
	cfg.Candidates = 8
	cfg.Folds = 2
	cfg.TopFrac = 0.4
	ens, err := ensemble.Train(train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	g, err := topology.Build(ens, d.SegLen)
	if err != nil {
		t.Fatal(err)
	}
	hw := sensornode.Characterize(g, celllib.P90)
	sys, err := xsystem.New(g, ens, celllib.P90, wireless.Model2(), aggregator.CortexA8(), partition.InSensor(g), sensornode.DefaultSampleRateHz)
	if err != nil {
		t.Fatal(err)
	}
	cached = &fixture{graph: g, hw: hw, sys: sys}
	return cached
}

// The cycle-stepped completion must equal the analytical critical path
// of xsystem's front-end model exactly (both are longest paths in
// cycles; one is computed by stepping, one by recursion).
func TestCompletionMatchesCriticalPath(t *testing.T) {
	f := getFixture(t)
	for _, p := range []partition.Placement{
		partition.InSensor(f.graph),
		partition.Trivial(f.graph),
	} {
		res, err := Simulate(f.graph, p, f.hw)
		if err != nil {
			t.Fatal(err)
		}
		want := f.sys.DelayOf(p).FrontEnd
		if got := float64(res.CompletionCycle) / celllib.ClockHz; math.Abs(got-want) > 1e-12+1e-9*want {
			t.Errorf("completion %v s != analytical critical path %v s", got, want)
		}
	}
}

// Per-cell and total energies must equal the celllib characterization —
// the simulation reproduces the characterized machine, not a new one.
func TestEnergyMatchesCharacterization(t *testing.T) {
	f := getFixture(t)
	p := partition.InSensor(f.graph)
	res, err := Simulate(f.graph, p, f.hw)
	if err != nil {
		t.Fatal(err)
	}
	var want float64
	for i := range f.graph.Cells {
		want += f.hw.Energy(topology.CellID(i))
	}
	if math.Abs(res.GatedEnergy-want) > 1e-15+1e-12*want {
		t.Errorf("gated energy %v != characterization sum %v", res.GatedEnergy, want)
	}
	if len(res.Cells) != len(f.graph.Cells) {
		t.Errorf("simulated %d cells, want %d", len(res.Cells), len(f.graph.Cells))
	}
}

// Power gating must save energy whenever the array runs longer than any
// single cell — idle leakage is the whole point of design rule 1.
func TestGatingSavings(t *testing.T) {
	f := getFixture(t)
	res, err := Simulate(f.graph, partition.InSensor(f.graph), f.hw)
	if err != nil {
		t.Fatal(err)
	}
	if res.UngatedEnergy <= res.GatedEnergy {
		t.Fatalf("ungated %v must exceed gated %v", res.UngatedEnergy, res.GatedEnergy)
	}
	s := res.GatingSavings()
	if s <= 0 || s >= 1 {
		t.Errorf("gating savings = %v, want in (0,1)", s)
	}
	t.Logf("power gating eliminates %.1f%% of the un-gated array energy", s*100)
}

// Schedule sanity: every cell starts only after its in-sensor producers
// are done, and timings are non-negative.
func TestScheduleRespectsDependencies(t *testing.T) {
	f := getFixture(t)
	p := partition.InSensor(f.graph)
	res, err := Simulate(f.graph, p, f.hw)
	if err != nil {
		t.Fatal(err)
	}
	done := make(map[topology.CellID]int64)
	start := make(map[topology.CellID]int64)
	for _, cs := range res.Cells {
		done[cs.ID] = cs.DoneCycle
		start[cs.ID] = cs.StartCycle
		if cs.StartCycle < 0 || cs.DoneCycle < cs.StartCycle {
			t.Fatalf("cell %d: bad window [%d,%d]", cs.ID, cs.StartCycle, cs.DoneCycle)
		}
	}
	for _, e := range f.graph.Edges {
		if e.From == topology.SourceID {
			continue
		}
		if start[e.To] < done[e.From] {
			t.Errorf("cell %d starts at %d before producer %d finishes at %d", e.To, start[e.To], e.From, done[e.From])
		}
	}
}

func TestEmptySensorPart(t *testing.T) {
	f := getFixture(t)
	res, err := Simulate(f.graph, partition.InAggregator(f.graph), f.hw)
	if err != nil {
		t.Fatal(err)
	}
	if res.CompletionCycle != 0 || res.GatedEnergy != 0 || len(res.Cells) != 0 {
		t.Error("empty in-sensor part should produce an empty result")
	}
}

func TestSimulateErrors(t *testing.T) {
	f := getFixture(t)
	if _, err := Simulate(f.graph, partition.Placement{partition.Sensor}, f.hw); err == nil {
		t.Error("short placement should error")
	}
}

func TestStateString(t *testing.T) {
	if Idle.String() != "idle" || Working.String() != "working" || Done.String() != "done" {
		t.Error("state names wrong")
	}
}

// Property: on synthetic topologies, the cycle-stepped completion always
// equals the analytical critical path, for random grouped placements.
func TestQuickSyntheticCompletion(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, err := topology.Synthetic(rng, 8+rng.Intn(200))
		if err != nil {
			return false
		}
		hw := sensornode.Characterize(g, celllib.P90)
		p := make(partition.Placement, len(g.Cells))
		readers := make(map[topology.CellID]bool)
		for _, id := range g.SourceReaders() {
			readers[id] = true
		}
		groupEnd := partition.End(rng.Intn(2))
		for i := range p {
			if readers[topology.CellID(i)] {
				p[i] = groupEnd
			} else {
				p[i] = partition.End(rng.Intn(2))
			}
		}
		res, err := Simulate(g, p, hw)
		if err != nil {
			return false
		}
		// Recompute the analytical critical path directly.
		order, err := g.TopoOrder()
		if err != nil {
			return false
		}
		finish := make([]int64, len(g.Cells))
		var want int64
		for _, id := range order {
			if !p.OnSensor(id) {
				continue
			}
			var start int64
			for _, e := range g.InEdges(id) {
				if e.From == topology.SourceID || !p.OnSensor(e.From) {
					continue
				}
				if finish[e.From] > start {
					start = finish[e.From]
				}
			}
			finish[id] = start + hw.Profiles[id].Cycles
			if finish[id] > want {
				want = finish[id]
			}
		}
		return res.CompletionCycle == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func BenchmarkSimulate(b *testing.B) {
	f := getFixture(b)
	p := partition.InSensor(f.graph)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Simulate(f.graph, p, f.hw); err != nil {
			b.Fatal(err)
		}
	}
}

// Peak power is bracketed by the hungriest single cell and the sum of
// all cells' powers.
func TestPeakPowerBounds(t *testing.T) {
	f := getFixture(t)
	res, err := Simulate(f.graph, partition.InSensor(f.graph), f.hw)
	if err != nil {
		t.Fatal(err)
	}
	peak := PeakPower(res, f.hw)
	var maxCell, sum float64
	for i := range f.graph.Cells {
		p := f.hw.Profiles[topology.CellID(i)].Power()
		sum += p
		if p > maxCell {
			maxCell = p
		}
	}
	if peak < maxCell-1e-12 {
		t.Errorf("peak %v below hungriest cell %v", peak, maxCell)
	}
	if peak > sum+1e-12 {
		t.Errorf("peak %v above all-cells sum %v", peak, sum)
	}
	t.Logf("peak power %.2f mW (hungriest cell %.2f mW, sum %.2f mW)", peak*1e3, maxCell*1e3, sum*1e3)
}
