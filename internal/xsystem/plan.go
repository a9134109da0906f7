package xsystem

import (
	"sync"

	"xpro/internal/fixed"
	"xpro/internal/partition"
	"xpro/internal/topology"
)

// This file compiles a placement into an immutable execution plan. XPro
// fixes its cut at design time (§3.2.3) and the run time only executes
// it, so everything a walk needs to know about the cut is derived once,
// when a system is built (New, WithPlacement, and every TieredSystem
// sibling), instead of on every event:
//
//   - graphPlan, placement-independent, built once in New and shared by
//     pointer with every sibling: CSR in-edges, the transfer groups
//     and source readers of the pricing problem's partition.View (the
//     same slices, not a copy), each group's slice offset and per-value
//     wire width, each cell's output slot, and the pool of walk arenas;
//   - placementPlan, per 2-end placement: the Delay and Energy books,
//     each cell's end and modeled (energy, delay), the per-end cell
//     counts, and the placement as a 1-hop tierPlan;
//   - tierPlan, per placement over a tier chain (a k-way placement, or
//     a 2-end one as the chain sensor → aggregator): each cell's tier,
//     the result tier, the source tier, the upper-cell count, tier-0
//     compute energies, each crossing group's hop span and the
//     per-consumer crossing lists.
//
// Per-event state — the padded and Q16.16 segment, cell outputs,
// transfer legs, lost flags, scratch vectors — lives in an arena the
// walk takes from its graph plan's pool and puts back when it returns,
// so siblings share one pool and a clean 2-end event allocates nothing.
// The k-tier entry allocates only its hop list and the per-hop books
// its caller keeps.

// groupLayout places a transfer group's values in its producer's
// output: the offset of its slice (a DWT cell emits detail ‖ approx,
// one group each) and the wire width of one value.
type groupLayout struct {
	off int
	per int64
}

// graphPlan is the placement-independent half of an execution plan.
type graphPlan struct {
	order []topology.CellID
	// Cell id's in-edges, in Graph.Edges order, are
	// ins[inStart[id]:inStart[id+1]].
	inStart []int
	ins     []topology.Edge
	// groups and readers are the pricing problem's view
	// (partition.View), shared, not copied; layout[gi] places groups[gi].
	groups []topology.TransferGroup
	layout []groupLayout
	// Cell id's groups, ascending, are prodGroups[prodStart[id]:prodStart[id+1]].
	prodStart, prodGroups []int
	readers               []topology.CellID
	// Cell id writes its output to [outOff[id], outOff[id+1]) of an
	// arena's outputs: detail ‖ approx for a DWT cell, one value else.
	outOff []int
	// segLen is the segment length, maxIn the largest in-degree and
	// maxOut the longest cell output.
	segLen, maxIn, maxOut int
	// arenas pools *arena; each is built on first use.
	arenas sync.Pool
}

func compileGraph(g *topology.Graph, order []topology.CellID, v *partition.View) *graphPlan {
	n := len(g.Cells)
	gp := &graphPlan{order: order, groups: v.Groups, readers: v.Readers}
	gp.inStart = make([]int, n+1)
	for _, e := range g.Edges {
		gp.inStart[e.To+1]++
	}
	for i := 0; i < n; i++ {
		gp.inStart[i+1] += gp.inStart[i]
	}
	gp.ins = make([]topology.Edge, len(g.Edges))
	inNext := append([]int(nil), gp.inStart[:n]...)
	for _, e := range g.Edges {
		gp.ins[inNext[e.To]] = e
		inNext[e.To]++
	}

	gp.segLen = g.SegLen
	gp.outOff = make([]int, n+1)
	for i, c := range g.Cells {
		out := c.OutValues
		if c.Role == topology.RoleDWT {
			out *= 2
		}
		gp.outOff[i+1] = gp.outOff[i] + out
		gp.maxIn = max(gp.maxIn, gp.inStart[i+1]-gp.inStart[i])
		gp.maxOut = max(gp.maxOut, out)
	}
	gp.arenas.New = func() any { return gp.newArena() }

	gp.layout = make([]groupLayout, len(gp.groups))
	gp.prodStart = make([]int, n+1)
	for gi, tg := range gp.groups {
		if tg.Class == topology.PayloadApprox {
			gp.layout[gi].off = g.Cells[tg.From].OutValues
		}
		if tg.Values > 0 {
			gp.layout[gi].per = tg.Bits / int64(tg.Values)
		}
		gp.prodStart[tg.From+1]++
	}
	for i := 0; i < n; i++ {
		gp.prodStart[i+1] += gp.prodStart[i]
	}
	gp.prodGroups = make([]int, len(gp.groups))
	prodNext := append([]int(nil), gp.prodStart[:n]...)
	for gi, tg := range gp.groups {
		gp.prodGroups[prodNext[tg.From]] = gi
		prodNext[tg.From]++
	}
	return gp
}

// arena is one walk's working memory, sized from the graph plan: a walk
// takes one from the plan's pool when it starts and puts it back on
// every return, so no two concurrent walks share one, and nothing a
// walk returns points into one.
type arena struct {
	// ev holds the segment padded and in Q16.16; its rawFloat is the
	// caller's samples, dropped when the arena goes back.
	ev event
	// fx and fl hold cell id's output at [off[id], off[id+1]) (the
	// plan's outOff), in the representation of the cell's end.
	off []int
	fx  []fixed.Num
	fl  []float64
	// xfx and xfl are an SVM cell's input vector; qfx and qfl a
	// crossing read quantized to the wire.
	xfx, qfx []fixed.Num
	xfl, qfl []float64
	// legs grows to the deepest chain the arena has walked.
	legs []leg
	// flags is each cell's lost flag, then each in-edge's avail flag.
	flags []bool
	// ints, air and outage back the per-hop books of the 2-end entry
	// points, which drop them.
	ints   [4]int
	air    [2]float64
	outage [1]bool
}

func (gp *graphPlan) newArena() *arena {
	n := gp.outOff[len(gp.outOff)-1]
	return &arena{
		ev:    makeEvent(gp.segLen),
		off:   gp.outOff,
		fx:    make([]fixed.Num, n),
		fl:    make([]float64, n),
		xfx:   make([]fixed.Num, gp.maxIn),
		xfl:   make([]float64, gp.maxIn),
		qfx:   make([]fixed.Num, gp.maxOut),
		qfl:   make([]float64, gp.maxOut),
		legs:  make([]leg, 1+len(gp.groups)),
		flags: make([]bool, len(gp.outOff)-1+len(gp.ins)),
	}
}

// take returns an arena for one walk; put gives it back.
func (gp *graphPlan) take() *arena { return gp.arenas.Get().(*arena) }

func (gp *graphPlan) put(a *arena) {
	a.ev.rawFloat = nil
	gp.arenas.Put(a)
}

// output returns cell id's output slot: Q16.16 when the cell runs on the
// sensor, float64 otherwise.
func (a *arena) output(id topology.CellID, onSensor bool) value {
	lo, hi := a.off[id], a.off[id+1]
	if onSensor {
		return value{fx: a.fx[lo:hi]}
	}
	return value{fl: a.fl[lo:hi]}
}

// inEdges returns the edges feeding cell id, in Graph.Edges order.
func (gp *graphPlan) inEdges(id topology.CellID) []topology.Edge {
	return gp.ins[gp.inStart[id]:gp.inStart[id+1]]
}

// producedGroups returns the indices of the transfer groups cell id
// produces, ascending.
func (gp *graphPlan) producedGroups(id topology.CellID) []int {
	return gp.prodGroups[gp.prodStart[id]:gp.prodStart[id+1]]
}

// crossings lists, under one placement, the crossing transfer groups
// each consumer waits on.
type crossings struct {
	// For the in-edge at CSR slot k, from producer P into consumer C on
	// another tier, pair[pairStart[k]:pairStart[k+1]] lists the crossing
	// groups of P that C consumes, ascending. Other slots list none.
	pairStart, pair []int
}

// compileCrossings derives the per-consumer crossing lists of a
// placement given as each cell's tier (a 2-end placement is the chain sensor = 0, aggregator = 1).
func (gp *graphPlan) compileCrossings(tierOf func(topology.CellID) int) crossings {
	cx := crossings{pairStart: make([]int, len(gp.ins)+1)}
	for id := range gp.inStart[:len(gp.inStart)-1] {
		c := topology.CellID(id)
		for k := gp.inStart[id]; k < gp.inStart[id+1]; k++ {
			cx.pairStart[k] = len(cx.pair)
			from := gp.ins[k].From
			if from == topology.SourceID || tierOf(from) == tierOf(c) {
				continue
			}
			for _, gi := range gp.producedGroups(from) {
				for _, cc := range gp.groups[gi].Consumers {
					if cc == c {
						cx.pair = append(cx.pair, gi)
					}
				}
			}
		}
	}
	cx.pairStart[len(gp.ins)] = len(cx.pair)
	return cx
}

// pairGroups returns the crossing groups the in-edge at CSR slot k
// waits on.
func (cx *crossings) pairGroups(k int) []int {
	return cx.pair[cx.pairStart[k]:cx.pairStart[k+1]]
}

// cellCost is one cell's modeled per-activation cost on its end.
type cellCost struct {
	end           string // "sensor" or "aggregator"
	energy, delay float64
}

// placementPlan is the compiled form of one 2-end placement.
type placementPlan struct {
	*graphPlan
	delay  Delay
	energy Energy
	cost   []cellCost
	// sensorCells and aggCells count the cells on each end.
	sensorCells, aggCells int
	// chain is the placement as a 1-hop tier plan (the sensor is tier 0,
	// the aggregator tier 1), the form the resilient walk runs.
	chain *tierPlan
}

// compilePlacement compiles s.Placement against s's graph plan and cost
// models.
func (s *System) compilePlacement(gp *graphPlan) *placementPlan {
	p := s.Placement
	pl := &placementPlan{graphPlan: gp, cost: make([]cellCost, len(p))}
	pl.delay = s.delayOf(gp, p)
	pl.energy = s.energyOf(gp, p)
	pl.sensorCells, pl.aggCells = p.Counts()
	tiers := make(partition.TierPlacement, len(p))
	for i := range p {
		id := topology.CellID(i)
		cc := cellCost{end: "aggregator"}
		if p.OnSensor(id) {
			cc.end = "sensor"
		}
		cc.energy, cc.delay = s.CellCost(id)
		pl.cost[i] = cc
		tiers[i] = partition.Tier(p[i])
	}
	pl.chain = gp.compileTiers(tiers, partition.Tier(partition.Aggregator), s.HW.Energy)
	return pl
}

// hopSpan is the hops one payload crosses in a walk: it leaves tier
// base and is consumed up to tier top — or, when top < base, down to
// it — one leg per hop; its per-event leg state lives at
// legs[legOff : legOff+|top−base|], in crossing order.
type hopSpan struct {
	base, top partition.Tier
	legOff    int
}

// toward returns the hops span sp crosses on the way to a consumer on
// tier t: the first hop, the step to the next (+1 climbing, −1
// descending) and how many of the span's legs lie on the way.
func (sp hopSpan) toward(t partition.Tier) (h, step, n int) {
	switch {
	case t > sp.base && sp.top > sp.base:
		return int(sp.base), 1, int(min(t, sp.top) - sp.base)
	case t < sp.base && sp.top < sp.base:
		return int(sp.base) - 1, -1, int(sp.base - max(t, sp.top))
	}
	return 0, 0, 0
}

// tierPlan is the compiled form of one placement over a tier chain: a
// k-way placement, or a 2-end one as its 1-hop chain.
type tierPlan struct {
	// tiers is each cell's tier; result is where the final result is
	// delivered.
	tiers  partition.TierPlacement
	result partition.Tier
	// srcTier is the tier of the source readers; the raw segment climbs
	// hops 0..srcTier−1 along raw.
	srcTier partition.Tier
	raw     hopSpan
	// upperCells counts the cells above tier 0; sensorEnergy[id] is the
	// compute energy tier-0 cell id charges the sensor.
	upperCells   int
	sensorEnergy []float64
	// spans[gi] is group gi's hop span (top == base: it never crosses).
	spans []hopSpan
	// legs is the number of per-event hop legs, raw span included.
	legs int
	crossings
}

// compileTiers compiles placement p over graph plan gp, delivering
// results to tier result and pricing tier-0 compute with energy0. A
// span runs one way: up to its highest consumer, or down to its lowest
// when nothing above its producer consumes it. k-way placements are
// tier-monotone and a 2-end placement has a single hop, so no span
// needs both.
func (gp *graphPlan) compileTiers(p partition.TierPlacement, result partition.Tier, energy0 func(topology.CellID) float64) *tierPlan {
	tp := &tierPlan{tiers: p, result: result, spans: make([]hopSpan, len(gp.groups)), sensorEnergy: make([]float64, len(p))}
	if len(gp.readers) > 0 {
		tp.srcTier = p[gp.readers[0]]
	}
	tp.raw = hopSpan{base: 0, top: tp.srcTier}
	tp.legs = int(tp.srcTier)
	for i, t := range p {
		if t > 0 {
			tp.upperCells++
		} else {
			tp.sensorEnergy[i] = energy0(topology.CellID(i))
		}
	}
	for gi := range gp.groups {
		tg := &gp.groups[gi]
		from := p[tg.From]
		lo, hi := from, from
		for _, c := range tg.Consumers {
			lo, hi = min(lo, p[c]), max(hi, p[c])
		}
		top := hi
		if hi == from {
			top = lo
		}
		tp.spans[gi] = hopSpan{base: from, top: top, legOff: tp.legs}
		tp.legs += int(hi - lo)
	}
	tp.crossings = gp.compileCrossings(func(id topology.CellID) int { return int(p[id]) })
	return tp
}
