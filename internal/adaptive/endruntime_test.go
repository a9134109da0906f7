package adaptive

import (
	"errors"
	"math/rand"
	"sync"
	"testing"

	"xpro/internal/aggregator"
	"xpro/internal/biosig"
	"xpro/internal/celllib"
	"xpro/internal/ensemble"
	"xpro/internal/faults"
	"xpro/internal/partition"
	"xpro/internal/sensornode"
	"xpro/internal/topology"
	"xpro/internal/wireless"
	"xpro/internal/xsystem"
)

var (
	trivialOnce sync.Once
	trivialSys  *xsystem.System
	trivialSegs []biosig.Segment
	trivialErr  error
)

// trivialC1 trains C1 with a small protocol and places it on the
// trivial cut, which puts every base classifier and the fusion on the
// aggregator, so every event crosses the link.
func trivialC1(t *testing.T) (*xsystem.System, []biosig.Segment) {
	t.Helper()
	trivialOnce.Do(func() {
		spec, err := biosig.CaseBySymbol("C1")
		if err != nil {
			trivialErr = err
			return
		}
		d := biosig.Generate(spec)
		train, test := d.Split(0.75, rand.New(rand.NewSource(spec.Seed)))
		cfg := ensemble.DefaultConfig(spec.Seed)
		cfg.Candidates, cfg.Folds, cfg.TopFrac = 8, 2, 0.5
		ens, err := ensemble.Train(train, cfg)
		if err != nil {
			trivialErr = err
			return
		}
		g, err := topology.Build(ens, d.SegLen)
		if err != nil {
			trivialErr = err
			return
		}
		trivialSys, trivialErr = xsystem.New(g, ens, celllib.P90, wireless.Model2(), aggregator.CortexA8(),
			partition.Trivial(g), sensornode.DefaultSampleRateHz)
		trivialSegs = test.Segs
	})
	if trivialErr != nil {
		t.Fatal(trivialErr)
	}
	return trivialSys, trivialSegs
}

// allRun is a plan with one window of kind k over the whole run.
func allRun(k faults.Kind, loss float64) *faults.Plan {
	return &faults.Plan{Windows: []faults.Window{{Kind: k, Start: 0, End: 1e6, Loss: loss}}}
}

func TestEndRuntimeValidation(t *testing.T) {
	sys, _ := trivialC1(t)
	pol := faults.DefaultPolicy()
	if _, err := NewEndRuntime(nil, EndConfig{Policy: pol}); err == nil {
		t.Error("nil system accepted")
	}
	bad := pol
	bad.Deadline = -1
	if _, err := NewEndRuntime(sys, EndConfig{Policy: bad}); err == nil {
		t.Error("negative deadline accepted")
	}
	if _, err := NewEndRuntime(sys, EndConfig{Policy: pol, BaseLoss: 1}); err == nil {
		t.Error("base loss 1 accepted")
	}
	if _, err := NewEndRuntime(sys, EndConfig{Policy: pol, LinkRetries: -1}); err == nil {
		t.Error("negative link retry budget accepted")
	}
	rt, err := NewEndRuntime(sys, EndConfig{Policy: pol})
	if err != nil {
		t.Fatal(err)
	}
	if !rt.Fallback().Placement.Equal(partition.InSensor(sys.Graph)) {
		t.Error("fallback is not the in-sensor cut")
	}
	// A rejected snapshot leaves the runtime as it was.
	before := rt.Snapshot()
	for name, st := range map[string]EndState{
		"breaker state":  {ClockSeconds: 5, Breaker: faults.BreakerSnapshot{State: 9}},
		"RNG cursor":     {ClockSeconds: 5, Draws: faults.MaxRNGDraws + 1},
		"estimator loss": {ClockSeconds: 5, Estimator: EstimatorState{Loss: 2}},
	} {
		if err := rt.Restore(st); err == nil {
			t.Errorf("%s: invalid snapshot accepted", name)
		}
		if got := rt.Snapshot(); got != before {
			t.Errorf("%s: rejected snapshot moved the runtime to %+v", name, got)
		}
	}
}

// FailFast returns the attempt's NoResultError, which carries its
// bill; once the breaker opens it returns ErrLinkDown without touching
// the link.
func TestEndRuntimeFailFast(t *testing.T) {
	sys, segs := trivialC1(t)
	rt, err := NewEndRuntime(sys, EndConfig{
		Policy: faults.DefaultPolicy(), Plan: allRun(faults.LinkOutage, 0), FailFast: true, Period: 0.25,
	})
	if err != nil {
		t.Fatal(err)
	}
	ev, err := rt.Serve(sys, segs[0], false)
	var nores *xsystem.NoResultError
	if !errors.As(err, &nores) {
		t.Fatalf("got %v, want *xsystem.NoResultError", err)
	}
	var down *faults.ErrLinkDown
	if !errors.As(err, &down) {
		t.Errorf("error chain does not reach *faults.ErrLinkDown: %v", err)
	}
	if !(nores.Outcome.SensorEnergy > sys.Problem().SensingEnergy) || ev != (EndEvent{}) {
		t.Errorf("attempt bill %g J (sensing alone %g J), event %+v", nores.Outcome.SensorEnergy,
			sys.Problem().SensingEnergy, ev)
	}
	for i := 0; i < 10 && rt.Breaker().Allow(); i++ {
		rt.Tick()
		if _, err := rt.Serve(sys, segs[0], false); err == nil {
			t.Fatal("an event crossed a dead link")
		}
	}
	if rt.Breaker().Allow() {
		t.Fatal("breaker never opened under a hard outage")
	}
	draws := rt.Snapshot().Draws
	_, err = rt.Serve(sys, segs[0], false)
	if !errors.As(err, &down) || errors.As(err, &nores) {
		t.Errorf("open breaker: got %v, want a bare *faults.ErrLinkDown", err)
	}
	if got := rt.Snapshot().Draws; got != draws {
		t.Errorf("open breaker drew %d values from the link", got-draws)
	}
}

// A browned or breaker-open event is served by the in-sensor cut and
// draws nothing from the link's random stream; inside a sensor
// brownout the software fallback streams the raw segment instead.
func TestEndRuntimeFallbackDrawsNothing(t *testing.T) {
	sys, segs := trivialC1(t)
	rt, err := NewEndRuntime(sys, EndConfig{Policy: faults.DefaultPolicy(), Plan: allRun(faults.LossBurst, 0.5)})
	if err != nil {
		t.Fatal(err)
	}
	clean, err := rt.Fallback().ClassifyOver(segs[0], nil)
	if err != nil {
		t.Fatal(err)
	}
	serve := func(browned bool) {
		t.Helper()
		draws := rt.Snapshot().Draws
		ev, err := rt.Serve(sys, segs[0], browned)
		if err != nil {
			t.Fatal(err)
		}
		if ev.Rung != RungFallbackSensor || ev.Label != clean.Label {
			t.Errorf("browned %v: rung %d label %d, want the in-sensor cut's label %d", browned, ev.Rung, ev.Label, clean.Label)
		}
		if got := rt.Snapshot().Draws; got != draws {
			t.Errorf("browned %v: drew %d values from the link", browned, got-draws)
		}
	}
	serve(true)
	st := rt.Snapshot()
	st.Breaker = faults.BreakerSnapshot{State: faults.BreakerOpen, OpenedAt: st.ClockSeconds}
	if err := rt.Restore(st); err != nil {
		t.Fatal(err)
	}
	serve(false)

	storm := allRun(faults.Brownout, 0)
	storm.Windows = append(storm.Windows, allRun(faults.LossBurst, 0.2).Windows...)
	sw, err := NewEndRuntime(sys, EndConfig{Policy: faults.DefaultPolicy(), Plan: storm, LinkRetries: 6})
	if err != nil {
		t.Fatal(err)
	}
	ev, err := sw.Serve(sys, segs[0], true)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Rung != RungFallbackSoftware || sw.Snapshot().Draws == 0 {
		t.Errorf("sensor brownout: rung %d after %d link draws, want the software fallback over the link",
			ev.Rung, sw.Snapshot().Draws)
	}
}

// Inside a sensor brownout the software fallback books the raw
// segment's air time and the ensemble's compute on the aggregator, at
// least the in-aggregator engine's clean time, and the sensing and the
// raw segment's transmit energy, whether or not an attempt ran first.
func TestEndRuntimeSoftwareFallbackBill(t *testing.T) {
	sys, segs := trivialC1(t)
	agg := sys.DelayOf(partition.InAggregator(sys.Graph))
	minSpent := agg.Wireless + agg.BackEnd
	minEnergy := sys.Problem().SensingEnergy + sys.Link.Cost(sys.Graph.SourceBits).TxEnergy
	for _, browned := range []bool{true, false} {
		rt, err := NewEndRuntime(sys, EndConfig{Policy: faults.DefaultPolicy(), Plan: allRun(faults.Brownout, 0)})
		if err != nil {
			t.Fatal(err)
		}
		ev, err := rt.Serve(sys, segs[0], browned)
		if err != nil {
			t.Fatal(err)
		}
		if ev.Rung != RungFallbackSoftware {
			t.Fatalf("browned %v: rung %d, want the software fallback", browned, ev.Rung)
		}
		if ev.SpentSeconds < minSpent*(1-1e-12) {
			t.Errorf("browned %v: spent %v s, want at least the in-aggregator engine's %v s", browned, ev.SpentSeconds, minSpent)
		}
		if ev.SensorEnergy < minEnergy*(1-1e-12) {
			t.Errorf("browned %v: sensor energy %v J, want at least sensing plus the raw segment's transmit energy %v J",
				browned, ev.SensorEnergy, minEnergy)
		}
	}
}
