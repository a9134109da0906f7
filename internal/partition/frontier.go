package partition

import (
	"fmt"
	"sort"
)

// FrontierPoint is one Pareto-optimal placement in the energy/delay
// plane.
type FrontierPoint struct {
	Placement Placement
	Energy    float64 // modeled sensor energy per event (J)
	Delay     float64 // simulated end-to-end delay per event (s)
	Lambda    float64 // the Lagrangian weight that produced the cut
}

// Frontier sweeps the Lagrangian ladder (the same sweep Generate uses)
// and returns the non-dominated (energy, delay) placements, sorted by
// increasing energy / decreasing delay. The two single-end engines are
// always included in the sweep's candidate pool, so the frontier spans
// the full design space of §2.2 ("the two existing approaches" are the
// extreme cases).
//
// The frontier is what a designer trades over when picking a delay
// budget: Generate(limit) returns exactly the cheapest frontier point
// with Delay ≤ limit.
func (pr *Problem) Frontier(delayOf func(Placement) float64) ([]FrontierPoint, error) {
	if delayOf == nil {
		return nil, fmt.Errorf("partition: nil delay model")
	}
	var cands []FrontierPoint
	add := func(p Placement, lambda float64) {
		for _, c := range cands {
			if c.Placement.Equal(p) {
				return
			}
		}
		cands = append(cands, FrontierPoint{
			Placement: p,
			Energy:    pr.SensorEnergy(p),
			Delay:     delayOf(p),
			Lambda:    lambda,
		})
	}
	for _, c := range pr.sweep() {
		add(c.p, c.lambda)
	}
	add(InSensor(pr.Graph), -1)
	add(InAggregator(pr.Graph), -1)

	// Keep the non-dominated points.
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].Energy != cands[j].Energy {
			return cands[i].Energy < cands[j].Energy
		}
		return cands[i].Delay < cands[j].Delay
	})
	var front []FrontierPoint
	bestDelay := 0.0
	for _, c := range cands {
		if len(front) == 0 || c.Delay < bestDelay {
			front = append(front, c)
			bestDelay = c.Delay
		}
	}
	return front, nil
}
