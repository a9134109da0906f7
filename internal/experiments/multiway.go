package experiments

import (
	"fmt"
	"strings"

	"xpro/internal/partition"
	"xpro/internal/wireless"
	"xpro/internal/xsystem"
)

// ExtMultiway lifts every case's trained topology onto an N-tier chain
// (sensor → hub(s) → cloud, Lab.TierCount tiers) and compares the
// k-way placement the multiway optimizer finds against the best
// single-hop bi-partition of the same chain — the strongest placement
// the paper's 2-end cut could express. The gain column is the k-way
// objective's improvement. It is never negative: the optimizer's min
// cut is the exact optimum, and every bi-partition is a feasible k-way
// placement.
func ExtMultiway(l *Lab) (*Table, error) {
	k := l.TierCount
	if k == 0 {
		k = 3
	}
	if k < 2 {
		return nil, fmt.Errorf("experiments: tier count %d (need ≥ 2)", k)
	}
	t := &Table{
		ID: "ext-multiway",
		Title: fmt.Sprintf("EXTENSION: multiway placement over a %d-tier chain "+
			"(Model 2 body hop, Model 3 uplinks, weighted objective)", k),
		Header: []string{"Case", "Cells", "BiPart(uJ)", "KWay(uJ)", "Gain", "PerTier", "HopBits"},
	}
	worstGain, bestGain := 1.0, 1.0
	for _, sym := range l.Symbols() {
		es, err := l.Engines(sym, evalProc, evalLink)
		if err != nil {
			return nil, err
		}
		tiers, hops := partition.DefaultChain(k, evalLink, wireless.Model3())
		ts, err := xsystem.NewTiered(es.CrossEnd, tiers, hops)
		if err != nil {
			return nil, err
		}
		kway := ts.Tiered.Cost(ts.TierPlacement)
		_, biC, _, err := ts.Tiered.BestBiPartition()
		if err != nil {
			return nil, err
		}
		gain := 1.0
		if biC > 0 {
			gain = kway / biC
		}
		worstGain = max2(worstGain, gain)
		bestGain = min2(bestGain, gain)
		rep := ts.TierReport()
		counts := make([]string, len(rep.Tiers))
		for i, te := range rep.Tiers {
			counts[i] = fmt.Sprintf("%d", te.Cells)
		}
		bits := make([]string, len(rep.HopDataBits))
		for i, b := range rep.HopDataBits {
			bits[i] = fmt.Sprintf("%d", b)
		}
		t.AddRow(sym, fmt.Sprintf("%d", len(ts.Graph.Cells)), f3(biC*1e6), f3(kway*1e6),
			pct(1-gain), strings.Join(counts, "/"), strings.Join(bits, "/"))
	}
	t.AddNote("k-way cost is %s–%s of the best single-hop bi-partition — the exact k-way "+
		"optimum never loses to the paper's 2-end cut and wins where a middle tier pays",
		pct(bestGain), pct(worstGain))
	return t, nil
}

// max2 mirrors min2 for the note accumulators.
func max2(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
