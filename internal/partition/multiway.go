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
// The solver runs an iterated bi-partition seed pass (each hop re-cut
// exactly by min-cut, via the same maxflow machinery as the 2-end
// generator) refined by a steepest-descent move pass (KL/FM style) over
// reader-grouped units. On instances small enough to brute-force it
// instead defers to the internal/partition/oracle enumerator, so its
// result is provably optimal there; elsewhere the per-hop bi-partition
// seeds guarantee it never loses to the best single-hop cut.
package partition

import (
	"fmt"
	"math"

	"xpro/internal/maxflow"
	"xpro/internal/partition/oracle"
	"xpro/internal/sensornode"
	"xpro/internal/telemetry"
	"xpro/internal/topology"
	"xpro/internal/wireless"
)

// Tier indexes a level of the device chain, 0 = the sensing tier.
type Tier int

// Canonical tiers of the three-tier deployment.
const (
	TierSensor Tier = 0
	TierHub    Tier = 1
	TierCloud  Tier = 2
)

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

// FromBinary lifts a 2-end placement onto k tiers: sensor cells to tier
// 0, aggregator cells to the top tier.
func FromBinary(p Placement, k int) TierPlacement {
	q := make(TierPlacement, len(p))
	for i, e := range p {
		if e == Aggregator {
			q[i] = Tier(k - 1)
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

// DefaultExactCells is the instance size up to which Solve brute-forces
// via the oracle enumerator instead of trusting the heuristic.
const DefaultExactCells = 12

// defaultExactSpace caps the raw assignment-space size k^units for the
// exact path, keeping worst-case enumeration in unit-test time.
const defaultExactSpace = 2_000_000

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
	// ExactCells bounds the brute-force path (default DefaultExactCells;
	// negative disables it).
	ExactCells int
	// CellEnergy optionally overrides per-cell compute energy on a
	// tier; nil falls back to HW.Energy(id) · Tiers[t].ComputeScale.
	CellEnergy func(t Tier, id topology.CellID) float64
	// Metrics receives solver counters; nil falls back to
	// telemetry.Default().
	Metrics *telemetry.Registry

	view *View
}

// DefaultThreeTier returns the canonical sensor → hub → cloud chain:
// the sensor tier carries the full battery weight, the phone-class hub
// a token one, the wall-powered cloud none; body is the sensor↔hub link
// and uplink the hub↔cloud link.
func DefaultThreeTier(body, uplink wireless.Model) ([]TierSpec, []Hop) {
	return DefaultChain(3, body, uplink)
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

// NewTieredProblem validates the chain and applies defaults.
func NewTieredProblem(g *topology.Graph, hw *sensornode.Hardware, tiers []TierSpec, hops []Hop, sensingEnergy float64) (*TieredProblem, error) {
	tp, err := newTieredProblem(g, hw, tiers, hops, sensingEnergy)
	if err == nil {
		tp.view = newView(g)
	}
	return tp, err
}

// Tiered poses pr's graph, hardware and sensing energy on a k-tier
// chain, as NewTieredProblem does, sharing pr's view.
func (pr *Problem) Tiered(tiers []TierSpec, hops []Hop) (*TieredProblem, error) {
	tp, err := newTieredProblem(pr.Graph, pr.HW, tiers, hops, pr.SensingEnergy)
	if err == nil {
		tp.view = pr.View()
	}
	return tp, err
}

func newTieredProblem(g *topology.Graph, hw *sensornode.Hardware, tiers []TierSpec, hops []Hop, sensingEnergy float64) (*TieredProblem, error) {
	if g == nil || hw == nil {
		return nil, fmt.Errorf("partition: tiered problem needs a graph and hardware")
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
		SensingEnergy: sensingEnergy,
		ResultTier:    Tier(len(tiers) - 1),
		ExactCells:    DefaultExactCells,
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
	for _, id := range readers[1:] {
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
	// Cost is Cost(Placement).
	Cost float64
	// Exact is true when the oracle brute-force path ran — the result
	// is then provably optimal.
	Exact bool
	// Visited counts enumerated assignments on the exact path.
	Visited int64
	// Seeds counts heuristic starting points tried.
	Seeds int
}

// oracleProblem poses this instance to the exhaustive enumerator.
func (tp *TieredProblem) oracleProblem() *oracle.Problem {
	g := tp.Graph
	op := &oracle.Problem{Cells: len(g.Cells), Tiers: tp.K()}
	for _, e := range g.Edges {
		if e.From == topology.SourceID {
			continue
		}
		op.Edges = append(op.Edges, [2]int{int(e.From), int(e.To)})
	}
	if readers := tp.structure().Readers; len(readers) > 1 {
		grp := make([]int, len(readers))
		for i, id := range readers {
			grp[i] = int(id)
		}
		op.Groups = append(op.Groups, grp)
	}
	return op
}

// exactEligible reports whether the brute-force path is in budget.
func (tp *TieredProblem) exactEligible() bool {
	limit := tp.ExactCells
	if limit == 0 {
		limit = DefaultExactCells
	}
	if limit < 0 || len(tp.Graph.Cells) > limit {
		return false
	}
	return tp.oracleProblem().Space() <= defaultExactSpace
}

// better reports a strict improvement of cost a over b, with tolerance
// so float noise cannot flap decisions (and determinism survives).
func better(a, b float64) bool {
	return a < b-(1e-12+1e-9*math.Abs(b))
}

// Solve returns the minimum-cost feasible k-way placement. On instances
// within the exact budget (≤ ExactCells cells and a small assignment
// space) the result is the brute-forced optimum; otherwise it is the
// best of the corner, iterated-promote and per-hop bi-partition seeds,
// each refined to a local optimum by steepest-descent unit moves, and
// therefore never worse than the best single-hop bi-partition.
func (tp *TieredProblem) Solve() (TierResult, error) {
	if err := tp.validate(); err != nil {
		return TierResult{}, err
	}
	m := tp.metrics()
	m.Counter("xpro_multiway_solve_total", "k-way placement solves.").Inc()

	if tp.exactEligible() {
		res, err := tp.solveExact()
		if err == nil {
			m.Counter("xpro_multiway_exact_total",
				"k-way solves answered by the exhaustive oracle path.").Inc()
			return res, nil
		}
		// Fall through to the heuristic on oracle errors (oversize races
		// the Space estimate only in pathological graphs).
	}
	return tp.solveHeuristic()
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

func (tp *TieredProblem) solveExact() (TierResult, error) {
	op := tp.oracleProblem()
	buf := make(TierPlacement, len(tp.Graph.Cells))
	res, err := op.Optimal(func(assign []int) float64 {
		for i, t := range assign {
			buf[i] = Tier(t)
		}
		return tp.Cost(buf)
	})
	if err != nil {
		return TierResult{}, err
	}
	p := make(TierPlacement, len(res.Assign))
	for i, t := range res.Assign {
		p[i] = Tier(t)
	}
	return TierResult{Placement: p, Cost: res.Cost, Exact: true, Visited: res.Visited}, nil
}

func (tp *TieredProblem) solveHeuristic() (TierResult, error) {
	k := tp.K()
	var seeds []TierPlacement
	// Corners: everything on one tier.
	for t := 0; t < k; t++ {
		seeds = append(seeds, AllAt(tp.Graph, Tier(t)))
	}
	// Iterated bi-partition: promote from the bottom, demote from the
	// top, re-cutting one hop at a time.
	up := AllAt(tp.Graph, 0)
	for h := 0; h < k-1; h++ {
		if q, _, err := tp.RecutHop(up, h); err == nil {
			up = q
		}
	}
	seeds = append(seeds, up)
	down := AllAt(tp.Graph, Tier(k-1))
	for h := k - 2; h >= 0; h-- {
		if q, _, err := tp.RecutHop(down, h); err == nil {
			down = q
		}
	}
	seeds = append(seeds, down)
	// Per-hop bi-partitions: the exact two-tier split across each hop.
	for h := 0; h < k-1; h++ {
		if q, _, err := tp.RecutHop(AllAt(tp.Graph, Tier(h)), h); err == nil {
			seeds = append(seeds, q)
		}
	}

	best := TierResult{Cost: math.Inf(1), Seeds: len(seeds)}
	for _, s := range seeds {
		p, c := tp.refine(s)
		if math.IsInf(c, 1) {
			continue // infeasible seed
		}
		if best.Placement == nil || better(c, best.Cost) {
			best.Placement = p
			best.Cost = c
		}
	}
	if best.Placement == nil {
		return TierResult{}, fmt.Errorf("partition: no feasible k-way placement found")
	}
	return best, nil
}

// refine runs steepest-descent unit moves (KL/FM style): per pass, try
// moving every reader-grouped unit one tier up or down, apply the
// single best strictly-improving move, and stop at a local optimum.
// Scan order and the strict-improvement tolerance make it deterministic.
func (tp *TieredProblem) refine(start TierPlacement) (TierPlacement, float64) {
	g := tp.Graph
	m := tp.metrics()
	moves := m.Counter("xpro_multiway_fm_moves_total",
		"Accepted unit moves during k-way placement refinement.")
	v := tp.structure()
	readers := v.Readers
	// Units in cell-ID order: the reader group once, at its lowest
	// member ID, then every other cell as a singleton.
	firstReader := topology.CellID(-1)
	if len(readers) > 0 {
		firstReader = readers[0]
		for _, r := range readers {
			if r < firstReader {
				firstReader = r
			}
		}
	}
	var units [][]topology.CellID
	for i := range g.Cells {
		id := topology.CellID(i)
		if v.reader[id] {
			if id == firstReader {
				units = append(units, readers)
			}
			continue
		}
		units = append(units, []topology.CellID{id})
	}

	cur := start.Clone()
	if err := tp.CheckPlacement(cur); err != nil {
		return cur, math.Inf(1)
	}
	curCost := tp.Cost(cur)
	k := Tier(tp.K())
	for pass := 0; pass < 4*len(g.Cells)*int(k); pass++ {
		var bestP TierPlacement
		bestC := curCost
		for _, unit := range units {
			for _, d := range [2]Tier{1, -1} {
				nt := cur[unit[0]] + d
				if nt < 0 || nt >= k {
					continue
				}
				q := cur.Clone()
				for _, id := range unit {
					q[id] = nt
				}
				if tp.CheckPlacement(q) != nil {
					continue
				}
				if c := tp.Cost(q); better(c, bestC) {
					bestP = q
					bestC = c
				}
			}
		}
		if bestP == nil {
			break
		}
		cur, curCost = bestP, bestC
		moves.Inc()
	}
	return cur, curCost
}

// RecutHop re-optimizes exactly the boundary at hop h of placement p,
// holding every other boundary fixed: cells currently on tiers h and
// h+1 choose between those two tiers (source readers as one unit), all
// other cells stay put. The binary subproblem is solved exactly as a
// minimum s-t cut — the same machinery as the 2-end generator — so the
// returned placement is the optimum of that neighborhood and never
// worse than p. This is the primitive behind the adaptive controller's
// k-way re-cut and the degradation ladder.
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

	g := tp.Graph
	lowT, highT := Tier(h), Tier(h+1)
	const (
		nodeS = 0 // low side (tier h)
		nodeT = 1 // high side (tier h+1)
	)
	cellNode := func(id topology.CellID) int { return 2 + int(id) }
	v := tp.structure()
	fg := maxflow.New(2 + len(g.Cells) + v.multi)
	nextAux := 2 + len(g.Cells)

	readers := v.Readers
	free := func(id topology.CellID) bool { return p[id] == lowT || p[id] == highT }

	// Pin fixed cells; price free cells' tier-dependent unary terms as
	// node side costs (shifted to ≥ 0 — shifts change the cut value but
	// not the argmin, and the final cost is re-priced by Cost).
	for i := range g.Cells {
		id := topology.CellID(i)
		if !free(id) {
			if p[id] < lowT {
				fg.AddEdge(nodeS, cellNode(id), maxflow.Inf)
			} else {
				fg.AddEdge(cellNode(id), nodeT, maxflow.Inf)
			}
			continue
		}
		lowCost := tp.cellEnergy(lowT, id) * tp.Tiers[lowT].EnergyWeight
		highCost := tp.cellEnergy(highT, id) * tp.Tiers[highT].EnergyWeight
		// The final result: delivery to ResultTier crosses hop h in a
		// way that depends only on the output cell's own side.
		if id == g.Output {
			if tp.ResultTier > lowT {
				lowCost += tp.hopCost(h, wireless.ValueBits, true)
			}
			if tp.ResultTier < highT {
				highCost += tp.hopCost(h, wireless.ValueBits, false)
			}
		}
		shift := math.Min(lowCost, highCost)
		fg.AddNodeSideCosts(nodeS, nodeT, cellNode(id), highCost-shift, lowCost-shift)
	}
	// Source readers move as one unit; the raw segment crosses hop h
	// exactly when they land high.
	if len(readers) > 0 && free(readers[0]) {
		for _, id := range readers[1:] {
			fg.AddEdge(cellNode(readers[0]), cellNode(id), maxflow.Inf)
			fg.AddEdge(cellNode(id), cellNode(readers[0]), maxflow.Inf)
		}
		fg.AddEdge(nodeS, cellNode(readers[0]), tp.hopCost(h, g.SourceBits, true))
	}
	// Monotonicity: an edge u→v may never have v low while u is high.
	for _, e := range g.Edges {
		if e.From == topology.SourceID {
			continue
		}
		fg.AddEdge(cellNode(e.To), cellNode(e.From), maxflow.Inf)
	}
	// Transfer groups: the payload crosses hop h exactly when the
	// producer lands low and any consumer lands high. Single consumer
	// uses a direct edge; broadcasts price the crossing once via an
	// auxiliary node.
	for i := range v.Groups {
		tg := &v.Groups[i]
		if p[tg.From] > highT {
			continue // produced above the hop, can never cross it
		}
		cost := tp.hopCost(h, tg.Bits, true)
		u := cellNode(tg.From)
		if len(tg.Consumers) == 1 {
			fg.AddEdge(u, cellNode(tg.Consumers[0]), cost)
			continue
		}
		aux := nextAux
		nextAux++
		fg.AddEdge(u, aux, cost)
		for _, cons := range tg.Consumers {
			fg.AddEdge(aux, cellNode(cons), maxflow.Inf)
		}
	}

	_, side, _ := fg.MinCut(nodeS, nodeT)
	q := p.Clone()
	for i := range g.Cells {
		id := topology.CellID(i)
		if !free(id) {
			continue
		}
		if side[cellNode(id)] {
			q[id] = lowT
		} else {
			q[id] = highT
		}
	}
	if err := tp.CheckPlacement(q); err != nil {
		return nil, 0, fmt.Errorf("partition: re-cut emitted infeasible placement: %w", err)
	}
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
