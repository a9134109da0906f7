// Multiway partitioning: the k-way generalization of the Automatic XPro
// Generator. Instead of a single s-t cut between sensor and aggregator,
// a TieredProblem places every functional cell on one tier of an N-tier
// device chain — sensor(s) → hub → cloud — connected by per-hop
// wireless links. Placements must be tier-monotone (data only flows
// downstream: tier(u) ≤ tier(v) for every edge u→v) and keep the
// grouped source readers of §3.2.2 on one tier.
//
// The objective is a weighted per-tier energy: each tier prices compute
// through its own scale and contributes to the objective through its
// EnergyWeight (battery-powered tiers weigh fully, wall-powered tiers
// weigh ~0), and every payload crossing a hop pays that hop's wireless
// tx at the lower tier and rx at the upper tier. With two tiers weighted
// {1, 0} the model reduces exactly to Problem.SensorEnergy — the paper's
// objective — which the test battery asserts.
//
// Solve minimizes the objective exactly with one minimum s-t cut, as
// the 2-end generator does: the graph has one node per cell and hop
// instead of one per cell (Ishikawa's construction for labels on a
// chain, IEEE TPAMI 2003). RecutHop solves the same graph with every
// node but one hop's contracted into the terminal the incumbent puts it
// on. The tests hold both to the exhaustive internal/partition/oracle
// enumerator and to per-instance optimality certificates.
package partition

import (
	"fmt"
	"math"

	"xpro/internal/maxflow"
	"xpro/internal/sensornode"
	"xpro/internal/telemetry"
	"xpro/internal/topology"
	"xpro/internal/wireless"
)

// Tier indexes a level of the device chain, 0 = the sensing tier.
type Tier int

// TierPlacement assigns every cell (indexed by topology.CellID) to a
// tier.
type TierPlacement []Tier

// Clone returns a copy of p.
func (p TierPlacement) Clone() TierPlacement {
	return append(TierPlacement(nil), p...)
}

// Equal reports whether two tier placements are identical.
func (p TierPlacement) Equal(q TierPlacement) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if p[i] != q[i] {
			return false
		}
	}
	return true
}

// Counts returns the number of cells on each of k tiers.
func (p TierPlacement) Counts(k int) []int {
	c := make([]int, k)
	for _, t := range p {
		if int(t) >= 0 && int(t) < k {
			c[t]++
		}
	}
	return c
}

// MaxTier returns the highest tier used.
func (p TierPlacement) MaxTier() Tier {
	m := Tier(0)
	for _, t := range p {
		if t > m {
			m = t
		}
	}
	return m
}

// CapAt clamps every cell to at most tier max — the degradation move
// when the hops above max are unusable. Clamping preserves monotonicity
// and reader grouping.
func (p TierPlacement) CapAt(max Tier) TierPlacement {
	q := p.Clone()
	for i, t := range q {
		if t > max {
			q[i] = max
		}
	}
	return q
}

// Collapse folds the tier placement to the binary sensor/aggregator
// placement of the 2-end runtime: cells at tiers ≤ boundary run on the
// sensor, the rest on the aggregator.
func (p TierPlacement) Collapse(boundary Tier) Placement {
	q := make(Placement, len(p))
	for i, t := range p {
		if t > boundary {
			q[i] = Aggregator
		}
	}
	return q
}

// AllAt returns the placement with every cell on tier t.
func AllAt(g *topology.Graph, t Tier) TierPlacement {
	p := make(TierPlacement, len(g.Cells))
	for i := range p {
		p[i] = t
	}
	return p
}

// TierSpec describes one tier of the device chain.
type TierSpec struct {
	// Name labels the tier in reports ("sensor", "hub", "cloud").
	Name string
	// ComputeScale multiplies the characterized sensor-hardware energy
	// to model this tier's silicon (1 on the sensing tier; upper tiers
	// may be overridden entirely via TieredProblem.CellEnergy).
	ComputeScale float64
	// EnergyWeight is this tier's contribution to the objective: 1 for
	// the battery budget that matters, ~0 for wall-powered tiers.
	EnergyWeight float64
}

// Hop is the wireless link between tier h and tier h+1.
type Hop struct {
	Link wireless.Model
	// BandwidthScale scales the link's data rate for delay reporting;
	// 0 marks the hop as dead — the optimizer then treats every bit
	// crossing it as (finitely) catastrophic and routes traffic off it.
	BandwidthScale float64
}

// DeadHopPenaltyPerBit is the objective surcharge per data bit crossing
// a dead hop (BandwidthScale == 0). It is feasibility pressure, not
// energy: large enough to dominate any per-event energy (µJ..mJ scale)
// yet finite, so the optimizer degrades to the placement crossing the
// fewest bits (the final result, when the hop must be crossed at all).
const DeadHopPenaltyPerBit = 1e3

// TieredProblem prices and optimizes k-way placements.
type TieredProblem struct {
	Graph *topology.Graph
	HW    *sensornode.Hardware
	// Tiers lists the device chain bottom-up; len ≥ 2.
	Tiers []TierSpec
	// Hops[h] connects Tiers[h] and Tiers[h+1]; len == len(Tiers)-1.
	Hops []Hop
	// SensingEnergy is Es of Eq. 1, always paid by tier 0.
	SensingEnergy float64
	// ResultTier is where the final classification must be delivered
	// (default: the top tier, where the application lives).
	ResultTier Tier
	// CellEnergy optionally overrides per-cell compute energy on a
	// tier; nil falls back to HW.Energy(id) · Tiers[t].ComputeScale.
	CellEnergy func(t Tier, id topology.CellID) float64
	// Metrics receives solver counters; nil falls back to
	// telemetry.Default().
	Metrics *telemetry.Registry

	view *View
}

// DefaultChain generalizes the three-tier defaults to a k-tier chain:
// sensor at the bottom (full battery weight), k−2 intermediate hubs
// with geometrically shrinking compute cost and battery weight, and an
// unweighted cloud on top. The first hop runs the body link, every hop
// above it the uplink. k < 2 is clamped to 2 (sensor → cloud).
func DefaultChain(k int, body, uplink wireless.Model) ([]TierSpec, []Hop) {
	if k < 2 {
		k = 2
	}
	tiers := make([]TierSpec, 0, k)
	tiers = append(tiers, TierSpec{Name: "sensor", ComputeScale: 1, EnergyWeight: 1})
	scale, weight := 0.5, 0.05
	for i := 1; i < k-1; i++ {
		name := "hub"
		if k > 3 {
			name = fmt.Sprintf("hub%d", i)
		}
		tiers = append(tiers, TierSpec{Name: name, ComputeScale: scale, EnergyWeight: weight})
		scale /= 2
		weight /= 2
	}
	tiers = append(tiers, TierSpec{Name: "cloud", ComputeScale: 0.1, EnergyWeight: 0})
	hops := make([]Hop, 0, k-1)
	hops = append(hops, Hop{Link: body, BandwidthScale: 1})
	for i := 1; i < k-1; i++ {
		hops = append(hops, Hop{Link: uplink, BandwidthScale: 1})
	}
	return tiers, hops
}

// Tiered poses pr's graph, hardware and sensing energy on a k-tier
// chain: it validates the chain, applies its defaults and shares pr's
// view.
func (pr *Problem) Tiered(tiers []TierSpec, hops []Hop) (*TieredProblem, error) {
	g, hw := pr.Graph, pr.HW
	if g == nil || hw == nil {
		return nil, fmt.Errorf("partition: tiered problem needs a graph and hardware")
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("partition: %w", err)
	}
	if len(tiers) < 2 {
		return nil, fmt.Errorf("partition: %d tiers (need ≥ 2)", len(tiers))
	}
	if len(hops) != len(tiers)-1 {
		return nil, fmt.Errorf("partition: %d hops for %d tiers (need %d)", len(hops), len(tiers), len(tiers)-1)
	}
	for i, ts := range tiers {
		if ts.ComputeScale < 0 || ts.EnergyWeight < 0 {
			return nil, fmt.Errorf("partition: tier %d (%s) has negative scale or weight", i, ts.Name)
		}
	}
	for i, h := range hops {
		if h.BandwidthScale < 0 {
			return nil, fmt.Errorf("partition: hop %d has negative bandwidth scale", i)
		}
	}
	return &TieredProblem{
		Graph:         g,
		HW:            hw,
		Tiers:         tiers,
		Hops:          hops,
		SensingEnergy: pr.SensingEnergy,
		ResultTier:    Tier(len(tiers) - 1),
		view:          pr.View(),
	}, nil
}

// structure returns the view of the problem's graph: the one its
// constructor compiled or shared, also shared by the problem's copies,
// or a freshly derived one for a hand-built problem.
func (tp *TieredProblem) structure() *View { return tp.view.of(tp.Graph) }

func (tp *TieredProblem) metrics() *telemetry.Registry {
	if tp.Metrics != nil {
		return tp.Metrics
	}
	return telemetry.Default()
}

// K returns the tier count.
func (tp *TieredProblem) K() int { return len(tp.Tiers) }

// cellEnergy prices cell id's compute on tier t (unweighted).
func (tp *TieredProblem) cellEnergy(t Tier, id topology.CellID) float64 {
	if tp.CellEnergy != nil {
		return tp.CellEnergy(t, id)
	}
	return tp.HW.Energy(id) * tp.Tiers[t].ComputeScale
}

// CheckPlacement verifies p is a feasible k-way placement: one tier per
// cell, in range, tier-monotone along every data edge, and with all
// grouped source readers on one tier.
func (tp *TieredProblem) CheckPlacement(p TierPlacement) error {
	g := tp.Graph
	if len(p) != len(g.Cells) {
		return fmt.Errorf("partition: placement covers %d cells, graph has %d", len(p), len(g.Cells))
	}
	k := Tier(tp.K())
	for i, t := range p {
		if t < 0 || t >= k {
			return fmt.Errorf("partition: cell %d on tier %d of %d", i, t, k)
		}
	}
	for _, e := range g.Edges {
		if e.From == topology.SourceID {
			continue
		}
		if p[e.From] > p[e.To] {
			return fmt.Errorf("partition: edge %d→%d climbs down tiers (%d→%d)", e.From, e.To, p[e.From], p[e.To])
		}
	}
	readers := tp.structure().Readers
	for _, id := range readers {
		if p[id] != p[readers[0]] {
			return fmt.Errorf("partition: source readers split across tiers %d and %d", p[readers[0]], p[id])
		}
	}
	return nil
}

// hopCost prices one payload of dataBits crossing hop h from tier h to
// tier h+1 (up=true) or the reverse: weighted tx at the sending tier,
// weighted rx at the receiving tier, plus the dead-hop surcharge.
func (tp *TieredProblem) hopCost(h int, dataBits int64, up bool) float64 {
	tr := tp.Hops[h].Link.Cost(dataBits)
	var c float64
	if up {
		c = tr.TxEnergy*tp.Tiers[h].EnergyWeight + tr.RxEnergy*tp.Tiers[h+1].EnergyWeight
	} else {
		c = tr.TxEnergy*tp.Tiers[h+1].EnergyWeight + tr.RxEnergy*tp.Tiers[h].EnergyWeight
	}
	if tp.Hops[h].BandwidthScale == 0 {
		c += DeadHopPenaltyPerBit * float64(dataBits)
	}
	return c
}

// spanCost prices a payload produced on tier from and consumed on the
// tiers in [lo, hi] (lo ≤ from ≤ hi not required): every hop between
// from and hi is crossed upward, every hop between lo and from downward.
func (tp *TieredProblem) spanCost(dataBits int64, from, lo, hi Tier) float64 {
	var c float64
	for h := from; h < hi; h++ {
		c += tp.hopCost(int(h), dataBits, true)
	}
	for h := lo; h < from; h++ {
		c += tp.hopCost(int(h), dataBits, false)
	}
	return c
}

// Cost prices placement p under the weighted per-tier model. It is the
// canonical objective: the oracle battery, the solver and the report
// surface all go through it. It tolerates non-monotone placements
// (downward transfers are priced, not rejected) so the 2-tier
// equivalence with Problem.SensorEnergy holds across the full 2^n
// space.
func (tp *TieredProblem) Cost(p TierPlacement) float64 {
	g := tp.Graph
	v := tp.structure()
	c := tp.SensingEnergy * tp.Tiers[0].EnergyWeight
	for i, t := range p {
		c += tp.cellEnergy(t, topology.CellID(i)) * tp.Tiers[t].EnergyWeight
	}
	// Raw segment: produced by the source on tier 0, consumed by every
	// reader.
	if readers := v.Readers; len(readers) > 0 {
		hi := Tier(0)
		for _, id := range readers {
			if p[id] > hi {
				hi = p[id]
			}
		}
		c += tp.spanCost(g.SourceBits, 0, 0, hi)
	}
	// Each distinct payload is broadcast once per hop it crosses.
	for i := range v.Groups {
		tg := &v.Groups[i]
		from := p[tg.From]
		lo, hi := from, from
		for _, cons := range tg.Consumers {
			if p[cons] > hi {
				hi = p[cons]
			}
			if p[cons] < lo {
				lo = p[cons]
			}
		}
		c += tp.spanCost(tg.Bits, from, lo, hi)
	}
	// The final result must reach ResultTier.
	out := p[g.Output]
	lo, hi := out, out
	if tp.ResultTier < lo {
		lo = tp.ResultTier
	}
	if tp.ResultTier > hi {
		hi = tp.ResultTier
	}
	c += tp.spanCost(wireless.ValueBits, out, lo, hi)
	return c
}

// TierBreakdown is an independent re-pricing of a placement: per-tier
// unweighted energies, per-hop traffic, and the recombined weighted
// objective. The invariant battery asserts WeightedCost == Cost(p) so
// the optimizer-internal and reported costs cannot drift.
type TierBreakdown struct {
	// Compute, Tx, Rx are unweighted per-tier energies (J/event).
	Compute []float64
	Tx      []float64
	Rx      []float64
	// Sensing is Es, paid by tier 0.
	Sensing float64
	// HopDataBits / HopWireBits are per-hop traffic per event (both
	// directions); HopAirSeconds the serialized air time at the hop's
	// scaled rate (+Inf on dead hops with traffic).
	HopDataBits   []int64
	HopWireBits   []int64
	HopAirSeconds []float64
	// Penalty is the dead-hop surcharge included in WeightedCost.
	Penalty float64
	// WeightedCost is Σ weight(t)·(Compute+Tx+Rx)[t] + weight(0)·Sensing
	// + Penalty.
	WeightedCost float64
}

// Breakdown re-prices placement p from scratch, accumulating per-tier
// and per-hop tables rather than a single scalar — a deliberately
// separate code path from Cost.
func (tp *TieredProblem) Breakdown(p TierPlacement) TierBreakdown {
	g := tp.Graph
	v := tp.structure()
	k := tp.K()
	b := TierBreakdown{
		Compute:       make([]float64, k),
		Tx:            make([]float64, k),
		Rx:            make([]float64, k),
		Sensing:       tp.SensingEnergy,
		HopDataBits:   make([]int64, k-1),
		HopWireBits:   make([]int64, k-1),
		HopAirSeconds: make([]float64, k-1),
	}
	for i, t := range p {
		b.Compute[t] += tp.cellEnergy(t, topology.CellID(i))
	}
	cross := func(dataBits int64, from, lo, hi Tier) {
		for h := from; h < hi; h++ {
			b.account(tp, int(h), dataBits, int(h), int(h)+1)
		}
		for h := lo; h < from; h++ {
			b.account(tp, int(h), dataBits, int(h)+1, int(h))
		}
	}
	if readers := v.Readers; len(readers) > 0 {
		hi := Tier(0)
		for _, id := range readers {
			if p[id] > hi {
				hi = p[id]
			}
		}
		cross(g.SourceBits, 0, 0, hi)
	}
	for i := range v.Groups {
		tg := &v.Groups[i]
		from := p[tg.From]
		lo, hi := from, from
		for _, cons := range tg.Consumers {
			if p[cons] > hi {
				hi = p[cons]
			}
			if p[cons] < lo {
				lo = p[cons]
			}
		}
		cross(tg.Bits, from, lo, hi)
	}
	out := p[g.Output]
	lo, hi := out, out
	if tp.ResultTier < lo {
		lo = tp.ResultTier
	}
	if tp.ResultTier > hi {
		hi = tp.ResultTier
	}
	cross(wireless.ValueBits, out, lo, hi)

	b.WeightedCost = b.Sensing * tp.Tiers[0].EnergyWeight
	for t := 0; t < k; t++ {
		b.WeightedCost += (b.Compute[t] + b.Tx[t] + b.Rx[t]) * tp.Tiers[t].EnergyWeight
	}
	b.WeightedCost += b.Penalty
	return b
}

// account books one payload crossing hop h from sendTier to recvTier.
func (b *TierBreakdown) account(tp *TieredProblem, h int, dataBits int64, sendTier, recvTier int) {
	tr := tp.Hops[h].Link.Cost(dataBits)
	b.Tx[sendTier] += tr.TxEnergy
	b.Rx[recvTier] += tr.RxEnergy
	b.HopDataBits[h] += dataBits
	b.HopWireBits[h] += tr.WireBits
	if scale := tp.Hops[h].BandwidthScale; scale > 0 {
		b.HopAirSeconds[h] += tr.Delay / scale
	} else {
		b.HopAirSeconds[h] = math.Inf(1)
		b.Penalty += DeadHopPenaltyPerBit * float64(dataBits)
	}
}

// TierResult is what Solve produced.
type TierResult struct {
	Placement TierPlacement
	// Cost is Cost(Placement), the minimum over every feasible
	// placement.
	Cost float64
}

// better reports a strict improvement of cost a over b, with tolerance
// so float noise cannot flap decisions (and determinism survives).
func better(a, b float64) bool {
	return a < b-(1e-12+1e-9*math.Abs(b))
}

// Solve returns the minimum-cost feasible k-way placement: the minimum
// cut of the problem's layered graph.
func (tp *TieredProblem) Solve() (TierResult, error) {
	if err := tp.validate(); err != nil {
		return TierResult{}, err
	}
	tp.metrics().Counter("xpro_multiway_solve_total", "k-way placement solves.").Inc()
	p, _ := tp.layered(nil, -1).cut()
	return TierResult{Placement: p, Cost: tp.Cost(p)}, nil
}

func (tp *TieredProblem) validate() error {
	if len(tp.Tiers) < 2 || len(tp.Hops) != len(tp.Tiers)-1 {
		return fmt.Errorf("partition: malformed tier chain (%d tiers, %d hops)", len(tp.Tiers), len(tp.Hops))
	}
	if tp.Graph == nil || tp.HW == nil {
		return fmt.Errorf("partition: tiered problem needs a graph and hardware")
	}
	if tp.ResultTier < 0 || int(tp.ResultTier) >= tp.K() {
		return fmt.Errorf("partition: result tier %d of %d", tp.ResultTier, tp.K())
	}
	return nil
}

// nJ prices the layered graph in nanojoules, so that maxflow's
// absolute tolerance of 1e-12 lies far below every cost difference a
// cut must resolve. In joules, where placements differ by as little as
// 1e-12, the cut's value missed Cost by up to 2e-12.
const nJ = 1e9

// The layered graph's terminals: s holds the nodes of cells at or
// below their hop, t those above it.
const (
	layerS = 0
	layerT = 1
)

// layered is a problem's layered s-t graph (Ishikawa's construction).
// Node (c, h) lands on the sink side exactly when cell c sits above hop
// h, on a tier > h, so a placement puts tier(c) of c's nodes on the
// sink side and every term of Cost becomes cut edges:
//
//   - c's chain runs s → (c, k−2) → … → (c, 0) → t. The edge out of
//     (c, t), or out of s for the top tier, is cut exactly when c sits
//     on tier t and carries unary(c, t);
//   - ∞ edges (c, h−1) → (c, h) keep each chain in order, ∞ edges
//     (v, h) → (u, h) keep every data edge u → v tier-monotone, and ∞
//     edges both ways keep the source readers on one tier;
//   - each hop has its own copy of CutGraph's tx gadget, which prices a
//     transfer group once when its producer sits at or below the hop
//     and a consumer above it: u → v for one consumer, u → aux and ∞
//     aux → v for each consumer of a broadcast.
//
// Some placement has a finite cost, so the minimum cut crosses no ∞
// edge: it is a feasible placement, and on the uncontracted graph its
// value is that placement's Cost less the sensing term, in nJ. A
// layered graph is built per call and owned by it.
type layered struct {
	fg   *maxflow.Graph
	nh   int
	node []int // node[c·nh+h]: (c, h)'s graph node, or the terminal it was contracted into
}

// layered builds the graph. With p nil every node is free and the cut
// solves the whole problem. Otherwise only hop's nodes of the cells p
// puts on tiers hop and hop+1 stay free, every other node is contracted
// into the terminal p puts it on, and the cut re-solves that hop's
// boundary with the rest of p held.
func (tp *TieredProblem) layered(p TierPlacement, hop int) *layered {
	g, v := tp.Graph, tp.structure()
	l := &layered{nh: len(tp.Hops), node: make([]int, len(g.Cells)*len(tp.Hops))}
	n := 2
	for c := range g.Cells {
		for h := 0; h < l.nh; h++ {
			switch {
			case p == nil || h == hop && (p[c] == Tier(h) || p[c] == Tier(h+1)):
				l.node[c*l.nh+h] = n
				n++
			case p[c] <= Tier(h):
				l.node[c*l.nh+h] = layerS
			default:
				l.node[c*l.nh+h] = layerT
			}
		}
	}
	aux := n
	for i := range v.Groups {
		for h := 0; h < l.nh; h++ {
			if l.broadcast(&v.Groups[i], h) {
				n++
			}
		}
	}
	l.fg = maxflow.New(n)

	k := tp.K()
	for i := range g.Cells {
		c := topology.CellID(i)
		for t := 0; t < k; t++ {
			if a, b := l.at(c, t), l.at(c, t-1); l.cuts(a, b) {
				l.add(a, b, nJ*tp.unary(c, Tier(t)))
			}
		}
		for h := 1; h < l.nh; h++ {
			l.add(l.at(c, h-1), l.at(c, h), maxflow.Inf)
		}
	}
	for _, e := range g.Edges {
		if e.From == topology.SourceID {
			continue
		}
		for h := 0; h < l.nh; h++ {
			l.add(l.at(e.To, h), l.at(e.From, h), maxflow.Inf)
		}
	}
	if readers := v.Readers; len(readers) > 1 {
		for _, r := range readers[1:] {
			for h := 0; h < l.nh; h++ {
				l.add(l.at(readers[0], h), l.at(r, h), maxflow.Inf)
				l.add(l.at(r, h), l.at(readers[0], h), maxflow.Inf)
			}
		}
	}
	for i := range v.Groups {
		tg := &v.Groups[i]
		for h := 0; h < l.nh; h++ {
			u := l.at(tg.From, h)
			if len(tg.Consumers) == 1 {
				if w := l.at(tg.Consumers[0], h); l.cuts(u, w) {
					l.add(u, w, nJ*tp.hopCost(h, tg.Bits, true))
				}
				continue
			}
			if !l.broadcast(tg, h) {
				continue
			}
			l.add(u, aux, nJ*tp.hopCost(h, tg.Bits, true))
			for _, c := range tg.Consumers {
				l.add(aux, l.at(c, h), maxflow.Inf)
			}
			aux++
		}
	}
	return l
}

// unary prices what of Cost cell c's tier t decides alone: its weighted
// compute, the raw segment's hops when c is the first source reader
// (the others share its tier), and the result's delivery when c is the
// output cell.
func (tp *TieredProblem) unary(c topology.CellID, t Tier) float64 {
	e := tp.cellEnergy(t, c) * tp.Tiers[t].EnergyWeight
	if readers := tp.structure().Readers; len(readers) > 0 && c == readers[0] {
		e += tp.spanCost(tp.Graph.SourceBits, 0, 0, t)
	}
	if c == tp.Graph.Output {
		e += tp.spanCost(wireless.ValueBits, t, min(t, tp.ResultTier), max(t, tp.ResultTier))
	}
	return e
}

// at returns (c, h)'s graph node. Every cell sits above hop −1 and at
// or below hop k−1, which closes each chain onto t and s.
func (l *layered) at(c topology.CellID, h int) int {
	switch {
	case h < 0:
		return layerT
	case h >= l.nh:
		return layerS
	}
	return l.node[int(c)*l.nh+h]
}

// cuts reports whether the cut decides an edge a → b: an edge out of t
// or into s is never cut, one from s to t always is, and a loop never.
func (l *layered) cuts(a, b int) bool {
	return a != b && a != layerT && b != layerS && (a != layerS || b != layerT)
}

// add adds the edge a → b when the cut decides it and it costs
// something.
func (l *layered) add(a, b int, capacity float64) {
	if capacity > 0 && l.cuts(a, b) {
		l.fg.AddEdge(a, b, capacity)
	}
}

// broadcast reports whether tg is a broadcast whose crossing of hop h
// the cut decides: its producer may sit at or below the hop, and one of
// its nodes there is free.
func (l *layered) broadcast(tg *topology.TransferGroup, h int) bool {
	if len(tg.Consumers) < 2 {
		return false
	}
	u := l.at(tg.From, h)
	if u != layerS {
		return u != layerT
	}
	for _, c := range tg.Consumers {
		if l.at(c, h) > layerT {
			return true
		}
	}
	return false
}

// cut solves the graph and reads the placement off it, with the cut's
// value in joules.
func (l *layered) cut() (TierPlacement, float64) {
	value, side := l.fg.Cut(layerS, layerT)
	p := make(TierPlacement, len(l.node)/l.nh)
	for c := range p {
		for h := 0; h < l.nh; h++ {
			if !side[l.node[c*l.nh+h]] {
				p[c]++
			}
		}
	}
	return p, value / nJ
}

// RecutHop re-optimizes exactly the boundary at hop h of placement p,
// holding every other boundary fixed: cells currently on tiers h and
// h+1 choose between those two tiers (source readers as one unit), all
// other cells stay put. It solves the layered graph with every node but
// those cells' hop-h nodes contracted, so the returned placement is the
// optimum of that neighborhood and never worse than p. This is the
// primitive behind the adaptive controller's k-way re-cut and the
// degradation ladder.
func (tp *TieredProblem) RecutHop(p TierPlacement, h int) (TierPlacement, float64, error) {
	if err := tp.validate(); err != nil {
		return nil, 0, err
	}
	if h < 0 || h >= len(tp.Hops) {
		return nil, 0, fmt.Errorf("partition: hop %d of %d", h, len(tp.Hops))
	}
	if err := tp.CheckPlacement(p); err != nil {
		return nil, 0, err
	}
	tp.metrics().Counter("xpro_multiway_recut_runs_total",
		"Single-hop k-way re-cut min-cut solves.").Inc()
	q, _ := tp.layered(p, h).cut()
	// The cut is exact for the neighborhood, but float noise could in
	// principle tie against the incumbent; keep the cheaper of the two
	// so RecutHop never regresses.
	cq, cp := tp.Cost(q), tp.Cost(p)
	if cp < cq {
		return p.Clone(), cp, nil
	}
	return q, cq, nil
}

// BestBiPartition solves the exact two-tier split across every hop in
// turn (all cells confined to tiers h and h+1) and returns the cheapest
// one with its hop index — the strongest single-cut competitor the
// k-way solver must beat or tie.
func (tp *TieredProblem) BestBiPartition() (TierPlacement, float64, int, error) {
	if err := tp.validate(); err != nil {
		return nil, 0, 0, err
	}
	var bestP TierPlacement
	bestC := math.Inf(1)
	bestH := -1
	for h := 0; h < len(tp.Hops); h++ {
		q, c, err := tp.RecutHop(AllAt(tp.Graph, Tier(h)), h)
		if err != nil {
			return nil, 0, 0, err
		}
		if bestP == nil || better(c, bestC) {
			bestP, bestC, bestH = q, c, h
		}
	}
	return bestP, bestC, bestH, nil
}
