package xsystem

import (
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
//     pointer with every sibling: CSR in-/out-edges, the transfer groups
//     with their slice offsets and per-value wire widths, and the source
//     readers;
//   - placementPlan, per 2-end placement: the Delay and Energy books,
//     each cell's end and modeled (energy, delay), the per-end cell
//     counts, and the crossing groups with their per-consumer lists;
//   - tierPlan, per k-way placement: the source tier, the upper-cell
//     count, each crossing group's hop span and the per-consumer lists.
//
// Per-event state — transfer legs, cell outputs, lost flags, ledgers —
// is not part of any plan and stays per call.

// transferGroup is a topology.TransferGroup with the offset of its slice
// in the producer's output (a DWT cell emits detail ‖ approx, one group
// each) and the wire width of one of its values.
type transferGroup struct {
	topology.TransferGroup
	off int
	per int64
}

// graphPlan is the placement-independent half of an execution plan.
type graphPlan struct {
	order []topology.CellID
	// Cell id's in-edges, in Graph.Edges order, are
	// ins[inStart[id]:inStart[id+1]]; inEdge holds their Graph.Edges
	// indices. Out-edges are indexed the same way through outStart.
	inStart, inEdge   []int
	ins               []topology.Edge
	outStart, outEdge []int
	groups            []transferGroup
	// Cell id's groups, ascending, are prodGroups[prodStart[id]:prodStart[id+1]].
	prodStart, prodGroups []int
	readers               []topology.CellID
}

func compileGraph(g *topology.Graph, order []topology.CellID) *graphPlan {
	n := len(g.Cells)
	gp := &graphPlan{order: order, readers: g.SourceReaders()}
	gp.inStart = make([]int, n+1)
	gp.outStart = make([]int, n+1)
	for _, e := range g.Edges {
		gp.inStart[e.To+1]++
		if e.From != topology.SourceID {
			gp.outStart[e.From+1]++
		}
	}
	for i := 0; i < n; i++ {
		gp.inStart[i+1] += gp.inStart[i]
		gp.outStart[i+1] += gp.outStart[i]
	}
	gp.ins = make([]topology.Edge, len(g.Edges))
	gp.inEdge = make([]int, len(g.Edges))
	gp.outEdge = make([]int, gp.outStart[n])
	inNext := append([]int(nil), gp.inStart[:n]...)
	outNext := append([]int(nil), gp.outStart[:n]...)
	for ei, e := range g.Edges {
		k := inNext[e.To]
		inNext[e.To]++
		gp.ins[k], gp.inEdge[k] = e, ei
		if e.From != topology.SourceID {
			gp.outEdge[outNext[e.From]] = ei
			outNext[e.From]++
		}
	}

	tgs := g.TransferGroups()
	gp.groups = make([]transferGroup, len(tgs))
	gp.prodStart = make([]int, n+1)
	for gi, tg := range tgs {
		x := transferGroup{TransferGroup: tg}
		if tg.Class == topology.PayloadApprox {
			x.off = g.Cells[tg.From].OutValues
		}
		if tg.Values > 0 {
			x.per = tg.Bits / int64(tg.Values)
		}
		gp.groups[gi] = x
		gp.prodStart[tg.From+1]++
	}
	for i := 0; i < n; i++ {
		gp.prodStart[i+1] += gp.prodStart[i]
	}
	gp.prodGroups = make([]int, len(tgs))
	prodNext := append([]int(nil), gp.prodStart[:n]...)
	for gi, tg := range tgs {
		gp.prodGroups[prodNext[tg.From]] = gi
		prodNext[tg.From]++
	}
	return gp
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
	// rawCrosses is true when a source reader sits on the aggregator:
	// the raw segment then crosses the link.
	rawCrosses bool
	crossings
}

// compilePlacement compiles s.Placement against s's graph plan and cost
// models.
func (s *System) compilePlacement(gp *graphPlan) *placementPlan {
	p := s.Placement
	pl := &placementPlan{graphPlan: gp, cost: make([]cellCost, len(p))}
	pl.delay = s.delayOf(gp, p)
	pl.energy = s.energyOf(gp, p)
	pl.sensorCells, pl.aggCells = p.Counts()
	for i := range p {
		id := topology.CellID(i)
		cc := cellCost{end: "aggregator"}
		if p.OnSensor(id) {
			cc.end = "sensor"
		}
		cc.energy, cc.delay = s.CellCost(id)
		pl.cost[i] = cc
	}
	for _, id := range gp.readers {
		if !p.OnSensor(id) {
			pl.rawCrosses = true
			break
		}
	}
	pl.crossings = gp.compileCrossings(func(id topology.CellID) int { return int(p[id]) })
	return pl
}

// hopSpan is the hops one payload climbs in a tiered walk: it leaves
// tier base and is consumed up to tier top, one leg per hop; its
// per-event leg state lives at legs[legOff : legOff+top−base].
type hopSpan struct {
	base, top partition.Tier
	legOff    int
}

// tierPlan is the compiled form of one k-way placement.
type tierPlan struct {
	// srcTier is the tier of the source readers; the raw segment climbs
	// hops 0..srcTier−1 along raw.
	srcTier partition.Tier
	raw     hopSpan
	// upperCells counts the cells above tier 0.
	upperCells int
	// spans[gi] is group gi's hop span (top == base: it never crosses).
	spans []hopSpan
	// legs is the number of per-event hop legs, raw span included.
	legs int
	crossings
}

// compileTiers compiles k-way placement p over ts's graph plan.
func (ts *TieredSystem) compileTiers(p partition.TierPlacement) *tierPlan {
	gp := ts.plan.graphPlan
	tp := &tierPlan{spans: make([]hopSpan, len(gp.groups))}
	if len(gp.readers) > 0 {
		tp.srcTier = p[gp.readers[0]]
	}
	tp.raw = hopSpan{base: 0, top: tp.srcTier}
	tp.legs = int(tp.srcTier)
	for _, t := range p {
		if t > 0 {
			tp.upperCells++
		}
	}
	for gi := range gp.groups {
		tg := &gp.groups[gi]
		from := p[tg.From]
		top := from
		for _, c := range tg.Consumers {
			if p[c] > top {
				top = p[c]
			}
		}
		tp.spans[gi] = hopSpan{base: from, top: top, legOff: tp.legs}
		tp.legs += int(top - from)
	}
	tp.crossings = gp.compileCrossings(func(id topology.CellID) int { return int(p[id]) })
	return tp
}
