package xpro

import (
	"fmt"
	"sync"

	"xpro/internal/adaptive"
	"xpro/internal/partition"
	"xpro/internal/telemetry"
	"xpro/internal/wireless"
	"xpro/internal/xsystem"
)

// This file is the public N-tier placement surface. The paper's
// generator cuts the functional topology across TWO ends (sensor and
// aggregator); PlanTiers generalizes that cut to a chain of tiers —
// sensor → hub(s) → cloud — solved by the multiway optimizer of
// internal/partition. The plan is a planning/pricing object: the
// functional runtime keeps executing the engine's 2-end cut (the
// plan's tier-0 boundary collapses onto it), while energy, traffic and
// re-cut decisions are modeled per tier and per hop.

// TierLevel is one tier of a plan's report.
type TierLevel struct {
	// Name labels the tier (sensor, hub, hub2, ..., cloud).
	Name string
	// Cells is how many functional cells the plan runs on this tier.
	Cells int
	// ComputeJ, TxJ, RxJ are the tier's unweighted energies per event.
	ComputeJ float64
	TxJ      float64
	RxJ      float64
	// Weight is the tier's share of the weighted objective (1 for the
	// battery-bound sensor, 0 for the wall-powered cloud).
	Weight float64
}

// TierPlanReport prices a plan's current assignment.
type TierPlanReport struct {
	// Tiers has one entry per tier, bottom (sensor) first.
	Tiers []TierLevel
	// HopDataBits / HopAirSeconds are per-hop traffic and serialized
	// air time per event, hop h connecting tier h to h+1.
	HopDataBits   []int64
	HopAirSeconds []float64
	// WeightedCostJ is the k-way objective of the assignment.
	WeightedCostJ float64
	// BiPartitionCostJ is the best placement expressible with a single
	// cut of the same chain — what the paper's 2-end generator could
	// do. WeightedCostJ never exceeds it.
	BiPartitionCostJ float64
	// Exact is always true: the solver's min cut is the exact optimum
	// of the weighted objective on every topology.
	Exact bool
}

// TierDecision is one entry of a plan's decision log: a re-cut, a
// degradation or a full re-solve, with the assignment it installed.
// The log is deterministic — a seeded run replays it bit-identically,
// across process restarts and checkpoint/recover cycles.
type TierDecision struct {
	// Op is "recut", "degrade", "resolve" or "pin". The tier-collapse
	// ladder of an armed plan logs its rung changes here too: a
	// collapse is a "degrade", a climb back up a "resolve".
	Op string
	// Hop is the re-cut hop (recut), the cap tier (degrade, and ladder
	// climbs logged as resolve) or -1 (full re-solve).
	Hop int
	// Loss and Outage are the channel estimate the decision priced
	// (recut only).
	Loss, Outage float64
	// Moved reports whether the assignment changed.
	Moved bool
	// Assignment is the per-cell tier after the decision.
	Assignment []int
	// CostJ is the weighted objective after the decision.
	CostJ float64
}

// String renders the decision in the canonical replay-log form used by
// determinism batteries.
func (d TierDecision) String() string {
	return fmt.Sprintf("op=%s hop=%d loss=%.17g outage=%.17g moved=%v assign=%v cost=%.17g",
		d.Op, d.Hop, d.Loss, d.Outage, d.Moved, d.Assignment, d.CostJ)
}

// TierPlan is a solved N-tier placement of an engine's topology plus
// its decision log. Methods are safe for concurrent use; every
// mutation appends to the log.
type TierPlan struct {
	mu sync.Mutex
	// ts is the home placement: the one manual moves install and
	// compare against, and the one an armed ladder cuts its rungs from.
	ts  *xsystem.TieredSystem
	opt partition.TierPlacement // the solved optimum, for Resolve
	log []TierDecision
	// eng is the engine the plan was solved for: installs bump its
	// serving epoch so memoized views (Network.Report, SLO) rebuild.
	eng *Engine
	// rt is the per-hop fault-tolerance runtime (nil until Arm);
	// collapses counts its downward rung transitions.
	rt        *adaptive.TierRuntime
	collapses *telemetry.Counter
}

// PlanTiers solves the engine's topology over a k-tier chain: the
// engine's own radio as the body hop, Wireless Model 3 uplinks above
// it, and the default tier weights of partition.DefaultChain. k = 0
// takes the canonical 3 (sensor → hub → cloud); k must otherwise be at
// least 2. The engine itself is not modified.
func (e *Engine) PlanTiers(k int) (*TierPlan, error) {
	if k == 0 {
		k = 3
	}
	if k < 2 {
		return nil, fmt.Errorf("xpro: %d tiers (need >= 2)", k)
	}
	sys := e.sys()
	tiers, hops := partition.DefaultChain(k, sys.Link, wireless.Model3())
	ts, err := xsystem.NewTiered(sys, tiers, hops)
	if err != nil {
		return nil, err
	}
	return &TierPlan{ts: ts, opt: ts.TierPlacement.Clone(), eng: e}, nil
}

// Assignment returns the per-cell tier of the placement the plan
// serves from, indexed by cell ID: the home placement, clamped to the
// ladder's steady rung while an armed plan is collapsed.
func (p *TierPlan) Assignment() []int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return assignmentOf(p.serving().TierPlacement)
}

func assignmentOf(tp partition.TierPlacement) []int {
	out := make([]int, len(tp))
	for i, t := range tp {
		out[i] = int(t)
	}
	return out
}

// Report prices the plan's current assignment per tier and per hop.
func (p *TierPlan) Report() (TierPlanReport, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	ts := p.serving()
	rep := ts.TierReport()
	_, biC, _, err := ts.Tiered.BestBiPartition()
	if err != nil {
		return TierPlanReport{}, err
	}
	out := TierPlanReport{
		HopDataBits:      append([]int64(nil), rep.HopDataBits...),
		HopAirSeconds:    append([]float64(nil), rep.HopAirSeconds...),
		WeightedCostJ:    rep.WeightedCost,
		BiPartitionCostJ: biC,
		Exact:            true,
	}
	for _, te := range rep.Tiers {
		out.Tiers = append(out.Tiers, TierLevel{
			Name: te.Name, Cells: te.Cells,
			ComputeJ: te.Compute, TxJ: te.Tx, RxJ: te.Rx, Weight: te.Weight,
		})
	}
	return out, nil
}

// RecutHop re-optimizes the boundary of one hop under an observed
// channel (loss and outage in [0, 1]): the hop's link is derated by
// the expected retransmission factor and the exact single-hop re-cut
// of internal/partition decides which hop-adjacent cells to move. The
// decision is appended to the log; the returned flag reports whether
// the assignment changed.
func (p *TierPlan) RecutHop(hop int, loss, outage float64) (bool, error) {
	if !(loss >= 0 && loss <= 1) || !(outage >= 0 && outage <= 1) {
		return false, fmt.Errorf("xpro: loss %v / outage %v outside [0,1]", loss, outage)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	est := adaptive.Estimate{Loss: loss, Outage: outage, Samples: 1}
	next, _, err := adaptive.HopRecut(p.ts.Tiered, p.ts.TierPlacement, hop, est, 64)
	if err != nil {
		return false, err
	}
	moved := !next.Equal(p.ts.TierPlacement)
	if moved {
		if err := p.install(next); err != nil {
			return false, err
		}
	}
	p.logDecision(TierDecision{Op: "recut", Hop: hop, Loss: loss, Outage: outage, Moved: moved})
	return moved, nil
}

// Resolve re-runs the full multiway solve and installs its optimum —
// the recovery step after degradations when the air clears.
func (p *TierPlan) Resolve() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	moved := !p.opt.Equal(p.ts.TierPlacement)
	if moved {
		if err := p.install(p.opt); err != nil {
			return err
		}
	}
	p.logDecision(TierDecision{Op: "resolve", Hop: -1, Moved: moved})
	return nil
}

// PinAll is the operator override: it homes every cell on one tier,
// discarding the solved optimum until the next Resolve. Demos and
// fault drills use it to force traffic across every hop (pin to the
// top tier) regardless of where the optimizer parked the cells.
func (p *TierPlan) PinAll(tier int) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if k := p.ts.Tiered.K(); tier < 0 || tier >= k {
		return fmt.Errorf("xpro: pin tier %d outside chain of %d tiers", tier, k)
	}
	next := partition.AllAt(p.ts.Graph, partition.Tier(tier))
	moved := !next.Equal(p.ts.TierPlacement)
	if moved {
		if err := p.install(next); err != nil {
			return err
		}
	}
	p.logDecision(TierDecision{Op: "pin", Hop: tier, Moved: moved})
	return nil
}

// install makes next the home placement. An armed ladder re-cuts its
// rungs from it and keeps its cap. Callers hold p.mu.
func (p *TierPlan) install(next partition.TierPlacement) error {
	ts, err := p.ts.WithTierPlacement(next)
	if err != nil {
		return err
	}
	if p.rt != nil {
		if err := p.rt.Rehome(ts); err != nil {
			return err
		}
	}
	p.ts = ts
	p.bump()
	return nil
}

// serving is the system the plan serves from: the armed ladder's
// steady rung, or the home placement. Callers hold p.mu.
func (p *TierPlan) serving() *xsystem.TieredSystem {
	if p.rt != nil {
		return p.rt.Rung(p.rt.Steady())
	}
	return p.ts
}

// bump advances the engine's serving epoch: a re-cut or a collapse
// rung changes the per-tier pricing that memoized views —
// Network.Report, the SLO caches — were built from, so they must
// rebuild. Callers hold p.mu.
func (p *TierPlan) bump() {
	if p.eng != nil {
		p.eng.epoch.Add(1)
	}
}

// logDecision stamps the serving assignment and cost onto d and
// appends it. Callers hold p.mu.
func (p *TierPlan) logDecision(d TierDecision) {
	ts := p.serving()
	d.Assignment = assignmentOf(ts.TierPlacement)
	d.CostJ = ts.Tiered.Cost(ts.TierPlacement)
	p.log = append(p.log, d)
}

// Log returns a copy of the plan's decision log.
func (p *TierPlan) Log() []TierDecision {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]TierDecision, len(p.log))
	for i, d := range p.log {
		d.Assignment = append([]int(nil), d.Assignment...)
		out[i] = d
	}
	return out
}

// PlanTiers plans every node of a body-sensor network onto the same
// k-tier chain: each subject's sensor keeps its own body hop, and the
// hub/cloud tiers are where the fleet's shared infrastructure lives.
// Plans are keyed by node name; iteration over the sorted names gives
// a deterministic fleet view.
func (n *Network) PlanTiers(k int) (map[string]*TierPlan, error) {
	out := make(map[string]*TierPlan, len(n.names))
	for _, name := range n.names {
		plan, err := n.engines[name].PlanTiers(k)
		if err != nil {
			return nil, fmt.Errorf("xpro: planning tiers for %s: %w", name, err)
		}
		out[name] = plan
	}
	return out, nil
}
