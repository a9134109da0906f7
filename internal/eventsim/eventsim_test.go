package eventsim

import (
	"math"
	"math/rand"
	"strings"
	"testing"

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
	sys   map[string]*xsystem.System
	cross partition.Placement
}

var cached *fixture

// busyTime sums activity durations per location ("sensor", "link",
// "aggregator").
func (t *Trace) busyTime() map[string]float64 {
	m := make(map[string]float64)
	for _, a := range t.Activities {
		if a.Kind == KindStall {
			continue
		}
		m[a.Where] += a.End - a.Start
	}
	return m
}

// stallTime sums the time activities spent blocked by fault windows.
func (t *Trace) stallTime() float64 {
	var s float64
	for _, a := range t.Activities {
		if a.Kind == KindStall {
			s += a.End - a.Start
		}
	}
	return s
}

func getFixture(t testing.TB) *fixture {
	t.Helper()
	if cached != nil {
		return cached
	}
	spec, err := biosig.CaseBySymbol("M1")
	if err != nil {
		t.Fatal(err)
	}
	d := biosig.Generate(spec)
	rng := rand.New(rand.NewSource(13))
	train, _ := d.Split(0.75, rng)
	cfg := ensemble.DefaultConfig(13)
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
	mk := func(p partition.Placement) *xsystem.System {
		s, err := xsystem.New(g, ens, celllib.P90, wireless.Model2(), aggregator.CortexA8(), p, sensornode.DefaultSampleRateHz)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	a := mk(partition.InAggregator(g))
	s := mk(partition.InSensor(g))
	limit := math.Min(a.DelayPerEvent().Total(), s.DelayPerEvent().Total())
	res, err := a.Problem().Generate(func(p partition.Placement) float64 { return a.DelayOf(p).Total() }, limit)
	if err != nil {
		t.Fatal(err)
	}
	cached = &fixture{
		graph: g,
		sys: map[string]*xsystem.System{
			"sensor":     s,
			"aggregator": a,
			"trivial":    mk(partition.Trivial(g)),
			"cross":      mk(res.Placement),
		},
		cross: res.Placement,
	}
	return cached
}

func inputFor(s *xsystem.System) Input {
	return Input{
		Graph:       s.Graph,
		Placement:   s.Placement,
		SensorDelay: s.HW.Delay,
		AggDelay: func(id topology.CellID) float64 {
			return s.CPU.CellCost(s.Graph.Cells[id].Spec).Delay
		},
		Link: s.Link,
	}
}

// The event-driven schedule can only overlap phases, never invent time:
// its finish is bounded by the additive Fig. 10 model, and it is at
// least the slowest single component.
func TestSimulateBoundedByAdditiveModel(t *testing.T) {
	f := getFixture(t)
	for name, s := range f.sys {
		tr, err := Simulate(inputFor(s))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		add := s.DelayPerEvent()
		if tr.Finish > add.Total()*(1+1e-9) {
			t.Errorf("%s: simulated %v > additive %v", name, tr.Finish, add.Total())
		}
		lower := math.Max(add.FrontEnd, math.Max(add.Wireless, add.BackEnd)) / 2
		if tr.Finish < lower {
			t.Errorf("%s: simulated %v implausibly fast (additive %v)", name, tr.Finish, add.Total())
		}
	}
}

// Single-end engines have no overlap to exploit: the event-driven finish
// must equal the additive model exactly.
func TestSingleEndExactMatch(t *testing.T) {
	f := getFixture(t)
	for _, name := range []string{"sensor", "aggregator"} {
		s := f.sys[name]
		tr, err := Simulate(inputFor(s))
		if err != nil {
			t.Fatal(err)
		}
		want := s.DelayPerEvent().Total()
		if math.Abs(tr.Finish-want) > 1e-12+1e-9*want {
			t.Errorf("%s: simulated %v != additive %v", name, tr.Finish, want)
		}
	}
}

// Busy time per resource must match the additive components exactly —
// the schedules move work in time, never change its amount.
func TestBusyTimeMatchesComponents(t *testing.T) {
	f := getFixture(t)
	for name, s := range f.sys {
		tr, err := Simulate(inputFor(s))
		if err != nil {
			t.Fatal(err)
		}
		busy := tr.busyTime()
		add := s.DelayPerEvent()
		if math.Abs(busy["link"]-add.Wireless) > 1e-12 {
			t.Errorf("%s: link busy %v != wireless %v", name, busy["link"], add.Wireless)
		}
		if math.Abs(busy["aggregator"]-add.BackEnd) > 1e-12 {
			t.Errorf("%s: CPU busy %v != back-end %v", name, busy["aggregator"], add.BackEnd)
		}
		// Sensor busy time is the SUM of cell delays (parallel units),
		// which is ≥ the critical-path FrontEnd component.
		if busy["sensor"] < add.FrontEnd-1e-12 {
			t.Errorf("%s: sensor busy %v < critical path %v", name, busy["sensor"], add.FrontEnd)
		}
	}
}

func TestTraceStructure(t *testing.T) {
	f := getFixture(t)
	s := f.sys["cross"]
	tr, err := Simulate(inputFor(s))
	if err != nil {
		t.Fatal(err)
	}
	ncells := 0
	for _, a := range tr.Activities {
		if a.End < a.Start {
			t.Fatalf("activity %s ends before it starts", a.Name)
		}
		if a.Kind == KindCell {
			ncells++
		}
	}
	if ncells != len(f.graph.Cells) {
		t.Errorf("trace has %d cell activations, want %d", ncells, len(f.graph.Cells))
	}
	// Link activities must not overlap (half-duplex channel).
	var last float64
	for _, a := range tr.Activities {
		if a.Where != "link" {
			continue
		}
		if a.Start < last-1e-12 {
			t.Errorf("link overlap: %s starts %v before previous end %v", a.Name, a.Start, last)
		}
		last = a.End
	}
	out := tr.Render()
	if !strings.Contains(out, "finish:") || !strings.Contains(out, "µs") {
		t.Error("render output malformed")
	}
	if KindCell.String() != "cell" || KindTransfer.String() != "transfer" {
		t.Error("kind names wrong")
	}
}

func TestSimulateErrors(t *testing.T) {
	f := getFixture(t)
	in := inputFor(f.sys["sensor"])
	in.Placement = partition.Placement{partition.Sensor}
	if _, err := Simulate(in); err == nil {
		t.Error("short placement should error")
	}
	in = inputFor(f.sys["sensor"])
	in.SensorDelay = nil
	if _, err := Simulate(in); err == nil {
		t.Error("nil delay model should error")
	}
}

func BenchmarkSimulate(b *testing.B) {
	f := getFixture(b)
	in := inputFor(f.sys["cross"])
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Simulate(in); err != nil {
			b.Fatal(err)
		}
	}
}
