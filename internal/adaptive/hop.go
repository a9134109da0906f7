package adaptive

import (
	"fmt"

	"xpro/internal/partition"
)

// HopRecut is the k-way generalization of the controller's re-cut
// step: instead of re-pricing the single body link and re-running the
// 2-end generator, it derates ONE hop of a tiered problem by the
// channel estimate observed on that hop and re-optimizes just that
// hop's boundary with the exact min-cut re-cut. Cells away from the
// drifting hop stay pinned, so the move is cheap enough to run inside
// the adaptive loop's dwell window.
//
// The returned placement never regresses the ORIGINAL objective's
// feasibility: it is exact for the derated problem and falls back to
// the incumbent when the incumbent is already cheaper under the
// derated prices.
func HopRecut(tp *partition.TieredProblem, p partition.TierPlacement, hop int, est Estimate, maxInflation float64) (partition.TierPlacement, float64, error) {
	if tp == nil {
		return nil, 0, fmt.Errorf("adaptive: nil tiered problem")
	}
	if hop < 0 || hop >= len(tp.Hops) {
		return nil, 0, fmt.Errorf("adaptive: hop %d outside [0,%d)", hop, len(tp.Hops))
	}
	if !(maxInflation >= 1) {
		return nil, 0, fmt.Errorf("adaptive: inflation cap %v must be at least 1", maxInflation)
	}
	derated := deratedProblem(tp, hop, est, maxInflation)
	return derated.RecutHop(p, hop)
}

// deratedProblem shallow-copies tp with hop's link folded through the
// channel estimate. Only the Hops slice is cloned — the graph, tier
// chain and pricing hooks are shared with the original, so the copy is
// allocation-light and safe to discard after the re-cut.
func deratedProblem(tp *partition.TieredProblem, hop int, est Estimate, maxInflation float64) *partition.TieredProblem {
	out := *tp
	out.Hops = append([]partition.Hop(nil), tp.Hops...)
	out.Hops[hop].Link = est.EffectiveModel(tp.Hops[hop].Link, maxInflation)
	if est.Outage >= 1 {
		// A fully dead hop: zero bandwidth makes the optimizer shed all
		// sheddable traffic off it (partition.DeadHopPenaltyPerBit).
		out.Hops[hop].BandwidthScale = 0
	}
	return &out
}
