package eventsim

import (
	"math"
	"testing"

	"xpro/internal/faults"
)

// An outage window covering the whole schedule horizon defers every
// link transfer to the window's end: the trace shows stall activities,
// the finish time grows past the clean schedule, and the event violates
// a deadline the clean schedule meets.
func TestSimulateLinkOutageDelaysEvent(t *testing.T) {
	in, _, err := syntheticInput(3)
	if err != nil {
		t.Fatal(err)
	}
	clean, err := Simulate(in)
	if err != nil {
		t.Fatal(err)
	}
	if clean.stallTime() != 0 {
		t.Fatalf("clean schedule has stall time %v", clean.stallTime())
	}
	crossing := false
	for _, a := range clean.Activities {
		if a.Kind == KindTransfer {
			crossing = true
		}
	}
	if !crossing {
		t.Skip("synthetic placement has no crossing transfer")
	}

	const outageEnd = 1.0 // far beyond the clean sub-millisecond schedule
	in.Faults = &faults.Plan{Windows: []faults.Window{
		{Kind: faults.LinkOutage, Start: 0, End: outageEnd},
	}}
	faulty, err := Simulate(in)
	if err != nil {
		t.Fatal(err)
	}
	if faulty.Finish <= clean.Finish {
		t.Errorf("outage finish %v not after clean %v", faulty.Finish, clean.Finish)
	}
	if faulty.Finish < outageEnd {
		t.Errorf("transfers ran during the outage: finish %v < %v", faulty.Finish, outageEnd)
	}
	if faulty.stallTime() == 0 {
		t.Error("outage left no stall time in the trace")
	}
	limit := clean.Finish * 2
	if clean.Finish > limit {
		t.Error("clean schedule should meet twice its own finish")
	}
	if faulty.Finish <= limit {
		t.Error("outage schedule should violate the clean deadline")
	}
	// Stalls are bookkeeping, not work: busy time excludes them.
	for res, busy := range faulty.busyTime() {
		if busy > faulty.Finish {
			t.Errorf("resource %s busy %v exceeds finish %v", res, busy, faulty.Finish)
		}
	}
}

// The Start offset shifts the event on the plan's absolute timeline: an
// event scheduled after the outage window sees a clean run.
func TestSimulateStartOffsetEscapesWindow(t *testing.T) {
	in, _, err := syntheticInput(3)
	if err != nil {
		t.Fatal(err)
	}
	in.Faults = &faults.Plan{Windows: []faults.Window{
		{Kind: faults.LinkOutage, Start: 0, End: 1},
	}}
	in.Start = 2 // the whole event runs after the outage
	shifted, err := Simulate(in)
	if err != nil {
		t.Fatal(err)
	}
	if shifted.stallTime() != 0 {
		t.Errorf("event after the window stalled %v", shifted.stallTime())
	}
}

// Loss bursts inflate transfer durations via retransmissions, sampled
// deterministically from FaultSeed.
func TestSimulateBurstDeterministic(t *testing.T) {
	in, _, err := syntheticInput(3)
	if err != nil {
		t.Fatal(err)
	}
	in.Faults = &faults.Plan{Windows: []faults.Window{
		{Kind: faults.LossBurst, Start: 0, End: 10, Loss: 0.8},
	}}
	in.FaultSeed = 5
	a, err := Simulate(in)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(in)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a.Finish-b.Finish) > 1e-15 {
		t.Errorf("same seed diverged: %v vs %v", a.Finish, b.Finish)
	}
	clean := in
	clean.Faults = nil
	c, err := Simulate(clean)
	if err != nil {
		t.Fatal(err)
	}
	if a.Finish < c.Finish {
		t.Errorf("burst schedule %v finished before clean %v", a.Finish, c.Finish)
	}
}

// Brownout windows defer sensor cells; stall windows defer aggregator
// cells.
func TestSimulateBrownoutAndStall(t *testing.T) {
	in, _, err := syntheticInput(3)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []faults.Kind{faults.Brownout, faults.AggStall} {
		fin := in
		fin.Faults = &faults.Plan{Windows: []faults.Window{{Kind: kind, Start: 0, End: 0.5}}}
		tr, err := Simulate(fin)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if tr.stallTime() == 0 {
			t.Errorf("%v window produced no stalls", kind)
		}
		if tr.Finish < 0.5 {
			t.Errorf("%v: finish %v inside the window", kind, tr.Finish)
		}
	}
}
