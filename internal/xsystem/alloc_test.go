package xsystem

import (
	"testing"

	"xpro/internal/biosig"
	"xpro/internal/faults"
	"xpro/internal/partition"
	"xpro/internal/telemetry"
)

// TestWalkAllocBudgets bounds the heap allocations of one event through
// each walk, so a walk regression fails go test, not only the
// benchmark.
func TestWalkAllocBudgets(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	f := getFixture(t)
	g := f.graph
	sys := newSystem(t, f, partition.InAggregator(g))
	limit := sys.DelayOf(partition.InSensor(g)).Total()
	if d := sys.DelayPerEvent().Total(); d < limit {
		limit = d
	}
	gen, err := sys.Problem().Generate(func(p partition.Placement) float64 { return sys.DelayOf(p).Total() }, limit)
	if err != nil {
		t.Fatal(err)
	}
	cross, err := sys.WithPlacement(gen.Placement)
	if err != nil {
		t.Fatal(err)
	}
	cross.Metrics = telemetry.NewRegistry()
	// The resilient walks run the trivial cut, whose features cross the
	// link, so the faulty transport has payloads to retry.
	trivial, err := sys.WithPlacement(partition.Trivial(g))
	if err != nil {
		t.Fatal(err)
	}
	ts := threeTier(t, cross)

	segs := f.test.Segs
	n := 0
	next := func() biosig.Segment {
		n++
		return segs[n%len(segs)]
	}
	clock := &faults.Clock{}
	link, err := faults.NewLink(trivial.Link, nil, clock, 0.1, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	lossy := &ResilientOptions{Transport: link, Clock: clock, Policy: faults.DefaultPolicy()}
	framed := &TieredOptions{Clock: clock, Policy: faults.DefaultPolicy(), Integrity: &faults.Framing{}}
	for h := range ts.Tiered.Hops {
		hl, err := faults.NewLink(ts.Tiered.Hops[h].Link, nil, clock, 0.05, 1, faults.HopSeed(11, h))
		if err != nil {
			t.Fatal(err)
		}
		framed.Hops = append(framed.Hops, HopTransport{Link: hl})
	}

	for _, c := range []struct {
		name string
		// budget is the measured count: a clean 2-end event allocates
		// nothing, a tiered one only the hops and the per-hop books its
		// caller keeps, and a faulty link its reports and errors.
		// before is the count when every event allocated its own
		// buffers.
		budget, before float64
		run            func()
	}{
		{"System.Classify", 0, 64, func() { _, _ = cross.Classify(next()) }},
		{"System.ClassifyOver/nil", 0, 60, func() { _, _ = trivial.ClassifyOver(next(), nil) }},
		{"System.ClassifyOver/faults.Link", 28, 88, func() {
			_, _ = trivial.ClassifyOver(next(), lossy)
			clock.Advance(0.01)
		}},
		{"TieredSystem.ClassifyOver/clean", 4, 60, func() { _, _ = ts.ClassifyOver(next(), nil) }},
		{"TieredSystem.ClassifyOver/framed", 6, 66, func() {
			_, _ = ts.ClassifyOver(next(), framed)
			clock.Advance(0.01)
		}},
	} {
		got := testing.AllocsPerRun(200, c.run)
		t.Logf("%s: %.0f allocs per event (%.0f before)", c.name, got, c.before)
		if got > c.budget {
			t.Errorf("%s: %.0f allocs per event, budget %.0f", c.name, got, c.budget)
		}
	}
}
