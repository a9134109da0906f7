package main

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"time"

	"xpro"
	"xpro/internal/admit"
	"xpro/internal/biosig"
	"xpro/internal/celllib"
	"xpro/internal/dwt"
	"xpro/internal/ensemble"
	"xpro/internal/experiments"
	"xpro/internal/faults"
	"xpro/internal/fixed"
	"xpro/internal/frame"
	"xpro/internal/partition"
	"xpro/internal/stats"
	"xpro/internal/svm"
	"xpro/internal/topology"
	"xpro/internal/wireless"
	"xpro/internal/xsystem"
)

// Layers the public API hides are timed by replay: the same events, in
// the same order, go through each layer's exported function on systems
// that experiments.Lab builds for the same case. A replay is valid only
// if its system has the engine's cut and gives the engine's labels.

// replayLab holds the Lab-built systems of every case.
type replayLab struct {
	cases []string
	sets  map[string]*experiments.EngineSet
	tier  map[string]*xsystem.TieredSystem
}

func newReplayLab(cases []string) (*replayLab, error) {
	lab := experiments.NewLab()
	lab.Cases = cases
	l := &replayLab{cases: cases, sets: map[string]*experiments.EngineSet{}, tier: map[string]*xsystem.TieredSystem{}}
	for _, c := range cases {
		// The engine defaults: 90 nm, wireless Model 2, Cortex-A8.
		es, err := lab.Engines(c, celllib.P90, wireless.Model2())
		if err != nil {
			return nil, err
		}
		l.sets[c] = es
	}
	return l, nil
}

// crossEnd is the case's generated 2-end system.
func (l *replayLab) crossEnd(c string) *xsystem.System { return l.sets[c].CrossEnd }

// tiered is the case's cross-end system solved over the chain
// Engine.PlanTiers builds.
func (l *replayLab) tiered(c string) (*xsystem.TieredSystem, error) {
	if ts, ok := l.tier[c]; ok {
		return ts, nil
	}
	sys := l.crossEnd(c)
	tiers, hops := partition.DefaultChain(tieredTiers, sys.Link, wireless.Model3())
	ts, err := xsystem.NewTiered(sys, tiers, hops)
	if err != nil {
		return nil, err
	}
	l.tier[c] = ts
	return ts, nil
}

// errGuard marks a replay that does not measure the engine's program.
var errGuard = errors.New("replay guard")

// guardCut checks that the replay system places every cell where the
// engine does.
func guardCut(c string, sys *xsystem.System, eng *xpro.Engine) error {
	pl := eng.Placement()
	if len(pl) != len(sys.Graph.Cells) {
		return fmt.Errorf("%w: %s: engine has %d cells, replay %d", errGuard, c, len(pl), len(sys.Graph.Cells))
	}
	for i, cp := range pl {
		end := "aggregator"
		if sys.Placement.OnSensor(topology.CellID(i)) {
			end = "sensor"
		}
		if cp.Name != sys.Graph.Cells[i].Name || cp.End != end {
			return fmt.Errorf("%w: %s: cell %s on %s in the engine, %s on %s in the replay",
				errGuard, c, cp.Name, cp.End, sys.Graph.Cells[i].Name, end)
		}
	}
	return nil
}

// guardLabels checks that replay and engine label every segment alike.
func guardLabels(c string, segs [][]float64, replay func([]float64) (int, error), engine func([]float64) (int, error)) error {
	for i, s := range segs {
		want, err := engine(s)
		if err != nil {
			return fmt.Errorf("%w: %s: engine: %v", errGuard, c, err)
		}
		got, err := replay(s)
		if err != nil {
			return fmt.Errorf("%w: %s: replay: %v", errGuard, c, err)
		}
		if got != want {
			return fmt.Errorf("%w: %s: segment %d labeled %d by the replay, %d by the engine", errGuard, c, i, got, want)
		}
	}
	return nil
}

// kernel is one DWT, statistics or SVM call of the walk, with its input
// in the representation of the end its cell runs on: Q16.16 on the
// sensor (tier 0), float64 above.
type kernel struct {
	kind  int // kDWT, kStats or kSVM
	fx    []fixed.Num
	fl    []float64
	feat  stats.Feature
	model *svm.Model
}

const (
	kDWT = iota
	kStats
	kSVM
	kKinds
)

// kernels evaluates sys's pipeline on samples (in float64, without wire
// quantization) and returns every kernel call its walk makes, in order.
func kernels(sys *xsystem.System, onSensor func(topology.CellID) bool, samples []float64) ([]kernel, error) {
	g := sys.Graph
	order, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}
	out := make([][]float64, len(g.Cells))
	padded := biosig.Segment{Samples: samples}.PadTo(ensemble.DWTInputLen)
	gather := func(id topology.CellID, i int, approx bool) []float64 {
		e := g.InEdges(id)[i]
		v := out[e.From]
		if from := g.Cells[e.From]; from.Role == topology.RoleDWT {
			if approx {
				return v[from.OutValues:]
			}
			return v[:from.OutValues]
		}
		return v
	}
	var calls []kernel
	add := func(k kernel, id topology.CellID, in []float64) {
		if onSensor(id) {
			k.fx = fixed.FromSlice(in)
		} else {
			k.fl = in
		}
		calls = append(calls, k)
	}
	for _, id := range order {
		c := g.Cells[id]
		switch c.Role {
		case topology.RoleDWT:
			in := padded
			if c.Level != 1 {
				in = gather(id, 0, true)
			}
			a, d, err := dwt.Step(dwt.Haar, in)
			if err != nil {
				return nil, err
			}
			out[id] = append(d, a...)
			add(kernel{kind: kDWT}, id, in)
		case topology.RoleFeature:
			in := samples
			if c.Feature.Domain != ensemble.TimeDomain {
				in = gather(id, 0, c.Feature.Domain == ensemble.DWTLevels+1)
			}
			out[id] = []float64{sys.Ens.FeatureRange(c.Feature).Apply(stats.Compute(c.Feature.Feat, in))}
			add(kernel{kind: kStats, feat: c.Feature.Feat}, id, in)
		case topology.RoleStdStage:
			vr := sys.Ens.FeatureRange(ensemble.FeatureSpec{Domain: c.Feature.Domain, Feat: stats.Var})
			raw := math.Max(0, vr.Invert(gather(id, 0, false)[0]))
			out[id] = []float64{sys.Ens.FeatureRange(c.Feature).Apply(math.Sqrt(raw))}
		case topology.RoleSVM:
			x := make([]float64, len(g.InEdges(id)))
			for i := range x {
				x[i] = gather(id, i, false)[0]
			}
			m := sys.Ens.Bases[c.Base].Model
			out[id] = []float64{m.Decision(x)}
			add(kernel{kind: kSVM, model: m}, id, x)
		}
	}
	return calls, nil
}

var sinkFx fixed.Num
var sinkFl float64

// run executes the call.
func (k *kernel) run() {
	switch {
	case k.kind == kDWT && k.fx != nil:
		a, _, _ := dwt.StepFixed(k.fx)
		sinkFx += a[0]
	case k.kind == kDWT:
		a, _, _ := dwt.Step(dwt.Haar, k.fl)
		sinkFl += a[0]
	case k.kind == kStats && k.fx != nil:
		sinkFx += stats.ComputeFixed(k.feat, k.fx)
	case k.kind == kStats:
		sinkFl += stats.Compute(k.feat, k.fl)
	case k.kind == kSVM && k.fx != nil:
		sinkFx += k.model.DecisionFixed(k.fx)
	default:
		sinkFl += k.model.Decision(k.fl)
	}
}

// kernelTotals accumulates kernel calls and their time by kind.
type kernelTotals struct {
	calls  [kKinds]int
	ns     [kKinds]int64
	events int
}

// time runs one event's kernel calls grouped by kind, timing each group.
func (t *kernelTotals) time(calls []kernel) {
	for kind := 0; kind < kKinds; kind++ {
		t0 := time.Now()
		for i := range calls {
			if calls[i].kind == kind {
				calls[i].run()
				t.calls[kind]++
			}
		}
		t.ns[kind] += int64(time.Since(t0))
	}
	t.events++
}

// set writes the per-event kernel metrics into v.
func (t *kernelTotals) set(v map[string]float64) {
	for kind, name := range []string{"dwt", "stats", "svm"} {
		v[name+".calls_per_event"] = float64(t.calls[kind]) / float64(t.events)
		v[name+".ns_per_event"] = float64(t.ns[kind]) / float64(t.events)
	}
}

// sum is the kernels' ns per event.
func (t *kernelTotals) sum() float64 {
	var s int64
	for _, ns := range t.ns {
		s += ns
	}
	return float64(s) / float64(t.events)
}

// mallocs returns the heap objects allocated so far.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// generateUs is the p50 of the replayed Automatic XPro Generator on each
// case's cross-end problem under T_XPro = min(T_F, T_B).
func (l *replayLab) generateUs(reps int) (float64, error) {
	var us []float64
	for _, c := range l.cases {
		a, s := l.sets[c].InAggregator, l.sets[c].InSensor
		limit := math.Min(a.DelayPerEvent().Total(), s.DelayPerEvent().Total())
		delayOf := func(p partition.Placement) float64 { return a.DelayOf(p).Total() }
		for r := 0; r < reps; r++ {
			t0 := time.Now()
			if _, err := a.Problem().Generate(delayOf, limit); err != nil {
				return 0, err
			}
			us = append(us, float64(time.Since(t0))/1e3)
		}
	}
	return median(us), nil
}

// solveUs is the p50 of the replayed 3-tier multiway solve per case.
func (l *replayLab) solveUs(reps int) (float64, error) {
	var us []float64
	for _, c := range l.cases {
		ts, err := l.tiered(c)
		if err != nil {
			return 0, err
		}
		for r := 0; r < reps; r++ {
			t0 := time.Now()
			if _, err := ts.Tiered.Solve(); err != nil {
				return 0, err
			}
			us = append(us, float64(time.Since(t0))/1e3)
		}
	}
	return median(us), nil
}

// admitClass maps a fleet priority onto the admission controller's
// class.
func admitClass(p xpro.Priority) admit.Class {
	switch p {
	case xpro.PriorityBatch:
		return admit.Batch
	case xpro.PriorityAlert:
		return admit.Alert
	}
	return admit.Interactive
}

var sinkShed *admit.ShedError

// decideNs replays one admission decision per event on a fresh
// controller with the default configuration, at the events' times and
// classes, and returns the mean ns per decision.
func decideNs(times []float64, classes []admit.Class) (float64, error) {
	c, err := admit.NewController(admit.DefaultConfig())
	if err != nil {
		return 0, err
	}
	depth := 64
	t0 := time.Now()
	for i, cl := range classes {
		sinkShed = c.Decide(times[i], cl, i%depth, depth, 0)
	}
	return float64(time.Since(t0)) / float64(len(classes)), nil
}

// payload is one crossing transfer of an event.
type payload struct {
	bits   int64
	values int
}

// crossings lists the payloads that cross the sensor's link each event
// under placement p: the raw segment when a source reader sits above
// the sensor, every crossing transfer group once, and the result when
// the output cell sits on the sensor.
func crossings(g *topology.Graph, p partition.Placement) []payload {
	var out []payload
	for _, id := range g.SourceReaders() {
		if !p.OnSensor(id) {
			out = append(out, payload{g.SourceBits, g.SegLen})
			break
		}
	}
	for _, tg := range g.TransferGroups() {
		from := p.OnSensor(tg.From)
		for _, c := range tg.Consumers {
			if p.OnSensor(c) != from {
				out = append(out, payload{tg.Bits, tg.Values})
				break
			}
		}
	}
	if p.OnSensor(g.Output) {
		out = append(out, payload{wireless.ValueBits, 1})
	}
	return out
}

// framing is the wire format of DefaultIntegrity and of Framed tier
// plans.
func framing() *faults.Framing { return &faults.Framing{Impute: frame.HoldLast} }

// linkRun is one replayed fault timeline: a link, its breaker and the
// modeled clock they share.
type linkRun struct {
	clock   *faults.Clock
	link    *faults.Link
	breaker *faults.Breaker
	period  float64
}

func newLinkRun(m wireless.Model, plan *faults.Plan, seed int64, period float64) (*linkRun, error) {
	pol := faults.DefaultPolicy()
	clock := &faults.Clock{}
	link, err := faults.NewLink(m, plan, clock, 0, 0, seed)
	if err != nil {
		return nil, err
	}
	br, err := faults.NewBreaker(pol.BreakerThreshold, pol.BreakerCooldown, clock)
	if err != nil {
		return nil, err
	}
	return &linkRun{clock: clock, link: link, breaker: br, period: period}, nil
}

// sendTotals accumulates replayed link sends.
type sendTotals struct {
	calls int
	ns    int64
}

// send replays one event's crossing payloads on lr and advances its
// clock by one event period.
func (s *sendTotals) send(lr *linkRun, pls []payload, fr *faults.Framing) {
	t0 := time.Now()
	for _, pl := range pls {
		_, _, _ = lr.link.SendValues(pl.bits, pl.values, fr)
	}
	s.ns += int64(time.Since(t0))
	s.calls += len(pls)
	lr.clock.Advance(lr.period)
}

func (s *sendTotals) perCall() float64 {
	if s.calls == 0 {
		return 0
	}
	return float64(s.ns) / float64(s.calls)
}
