package xsystem

import (
	"fmt"

	"xpro/internal/partition"
	"xpro/internal/topology"
)

// TieredSystem extends a 2-end System with an N-tier placement: the
// same trained topology spread over sensor → hub → cloud instead of
// sensor → aggregator. The functional runtime stays two-natured (the
// sensing tier runs fixed-point cell hardware, everything above runs
// the float software models), so a tier placement executes by
// collapsing at the first hop: tier-0 cells on the sensor engine, all
// upper tiers on the software path. Energy and traffic, however, are
// priced per tier and per hop through the k-way cost model.
type TieredSystem struct {
	*System
	// Tiered is the k-way pricing problem derived from the system.
	Tiered *partition.TieredProblem
	// TierPlacement is the current k-way placement; System.Placement is
	// always its Collapse(0).
	TierPlacement partition.TierPlacement

	tplan *tierPlan
}

// NewTiered lifts a 2-end system onto the given tier chain and solves
// for the optimal k-way placement. Upper tiers price cell compute
// through the aggregator CPU model scaled by their ComputeScale, so
// the hub and cloud inherit calibrated software costs rather than the
// sensor's hardware ones.
func NewTiered(s *System, tiers []partition.TierSpec, hops []partition.Hop) (*TieredSystem, error) {
	if s == nil {
		return nil, fmt.Errorf("xsystem: nil system")
	}
	tp, err := s.Problem().Tiered(tiers, hops)
	if err != nil {
		return nil, err
	}
	tp.Metrics = s.Metrics
	cpu := s.CPU
	graph := s.Graph
	tp.CellEnergy = func(t partition.Tier, id topology.CellID) float64 {
		if t == 0 {
			return s.HW.Energy(id) * tiers[0].ComputeScale
		}
		return cpu.CellCost(graph.Cells[id].Spec).Energy * tiers[t].ComputeScale
	}
	res, err := tp.Solve()
	if err != nil {
		return nil, err
	}
	return newTieredWith(s, tp, res.Placement)
}

// newTieredWith installs placement p, collapsing it onto the 2-end
// runtime.
func newTieredWith(s *System, tp *partition.TieredProblem, p partition.TierPlacement) (*TieredSystem, error) {
	if err := tp.CheckPlacement(p); err != nil {
		return nil, err
	}
	runtime, err := s.WithPlacement(p.Collapse(0))
	if err != nil {
		return nil, err
	}
	ts := &TieredSystem{System: runtime, Tiered: tp, TierPlacement: p.Clone()}
	ts.tplan = runtime.plan.compileTiers(ts.TierPlacement, tp.ResultTier,
		func(id topology.CellID) float64 { return ts.cellEnergyAt(0, id) })
	return ts, nil
}

// cellEnergyAt prices cell id's compute on tier t, honoring the
// problem's CellEnergy override.
func (ts *TieredSystem) cellEnergyAt(t partition.Tier, id topology.CellID) float64 {
	if ts.Tiered.CellEnergy != nil {
		return ts.Tiered.CellEnergy(t, id)
	}
	return ts.HW.Energy(id) * ts.Tiered.Tiers[t].ComputeScale
}

// WithTierPlacement returns a sibling system running placement p — the
// k-way hot-swap primitive mirroring System.WithPlacement.
func (ts *TieredSystem) WithTierPlacement(p partition.TierPlacement) (*TieredSystem, error) {
	return newTieredWith(ts.System, ts.Tiered, p)
}

// WithResultDelivery returns a sibling running placement p whose final
// result only has to reach tier result instead of the problem's
// configured ResultTier — the collapse-rung primitive: a capped rung
// both clamps the placement and re-homes delivery, so the event walk
// stops marching results across hops that are known dead. The pricing
// problem is shallow-copied; the parent's is not modified.
func (ts *TieredSystem) WithResultDelivery(p partition.TierPlacement, result partition.Tier) (*TieredSystem, error) {
	if result < 0 || int(result) >= ts.Tiered.K() {
		return nil, fmt.Errorf("xsystem: result tier %d outside [0,%d)", result, ts.Tiered.K())
	}
	tp := *ts.Tiered
	tp.ResultTier = result
	return newTieredWith(ts.System, &tp, p)
}

// CollapseRungs builds the rungs of the tier-collapse ladder once:
// rungs[c] runs the placement clamped to tiers ≤ c, with result
// delivery re-homed onto the cap when it lies below the configured
// ResultTier, and rungs[len(Hops)] is the full chain.
func (ts *TieredSystem) CollapseRungs() ([]*TieredSystem, error) {
	nh := len(ts.Tiered.Hops)
	rungs := make([]*TieredSystem, nh+1)
	for c := range rungs {
		capT := partition.Tier(c)
		rung, err := ts.WithResultDelivery(ts.TierPlacement.CapAt(capT), min(capT, ts.Tiered.ResultTier))
		if err != nil {
			return nil, err
		}
		rungs[c] = rung
	}
	return rungs, nil
}

// RecutHop re-optimizes one hop's boundary (see
// partition.TieredProblem.RecutHop) and returns the re-cut sibling; the
// bool reports whether the placement actually moved.
func (ts *TieredSystem) RecutHop(hop int) (*TieredSystem, bool, error) {
	q, _, err := ts.Tiered.RecutHop(ts.TierPlacement, hop)
	if err != nil {
		return nil, false, err
	}
	if q.Equal(ts.TierPlacement) {
		return ts, false, nil
	}
	next, err := ts.WithTierPlacement(q)
	if err != nil {
		return nil, false, err
	}
	return next, true, nil
}

// TierEnergy is the per-tier energy report of one event.
type TierEnergy struct {
	// Name is the tier's label from its TierSpec.
	Name string
	// Cells is how many cells run on the tier.
	Cells int
	// Compute, Tx, Rx are the tier's unweighted energies (J/event).
	Compute float64
	Tx      float64
	Rx      float64
	// Weight is the tier's objective weight.
	Weight float64
}

// TierReport prices the current placement per tier and per hop.
type TierReport struct {
	Tiers []TierEnergy
	// HopDataBits / HopAirSeconds are per-hop traffic and serialized
	// air time per event.
	HopDataBits   []int64
	HopAirSeconds []float64
	// WeightedCost is the k-way objective of the placement.
	WeightedCost float64
}

// TierReport breaks the current placement's cost down per tier.
func (ts *TieredSystem) TierReport() TierReport {
	bd := ts.Tiered.Breakdown(ts.TierPlacement)
	counts := ts.TierPlacement.Counts(ts.Tiered.K())
	rep := TierReport{
		HopDataBits:   bd.HopDataBits,
		HopAirSeconds: bd.HopAirSeconds,
		WeightedCost:  bd.WeightedCost,
	}
	for t, spec := range ts.Tiered.Tiers {
		te := TierEnergy{
			Name:    spec.Name,
			Cells:   counts[t],
			Compute: bd.Compute[t],
			Tx:      bd.Tx[t],
			Rx:      bd.Rx[t],
			Weight:  spec.EnergyWeight,
		}
		if t == 0 {
			te.Compute += bd.Sensing
		}
		rep.Tiers = append(rep.Tiers, te)
	}
	return rep
}
