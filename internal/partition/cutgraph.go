package partition

import (
	"xpro/internal/maxflow"
	"xpro/internal/topology"
	"xpro/internal/wireless"
)

// View is the placement-independent pricing structure of a graph,
// derived once: its source readers (the grouped set of §3.2.2) and its
// transfer groups, in the orders topology.Graph.SourceReaders and
// TransferGroups return them. Nothing modifies a View once derived, so
// a problem, its copies and the execution plans of every system over
// the graph share one by pointer, and concurrent readers need no lock.
type View struct {
	Readers []topology.CellID
	Groups  []topology.TransferGroup

	graph  *topology.Graph
	reader []bool // reader[id]: cell id reads the raw segment
	multi  int    // groups with more than one consumer
}

// newView derives g's view.
func newView(g *topology.Graph) *View {
	v := &View{
		Readers: g.SourceReaders(),
		Groups:  g.TransferGroups(),
		graph:   g,
		reader:  make([]bool, len(g.Cells)),
	}
	for _, id := range v.Readers {
		v.reader[id] = true
	}
	for _, tg := range v.Groups {
		if len(tg.Consumers) > 1 {
			v.multi++
		}
	}
	return v
}

// of returns v when it was derived from g, and a fresh view of g
// otherwise (a hand-built problem, or a copy given another graph).
func (v *View) of(g *topology.Graph) *View {
	if v != nil && v.graph == g {
		return v
	}
	return newView(g)
}

// s-t graph node layout: 0 = F (sensor), 1 = B (aggregator), 2 = D (raw
// data), 3+i = cell i, then two auxiliary nodes per multi-consumer
// transfer group (broadcast tx and rx pricing).
const (
	nodeF = 0
	nodeB = 1
	nodeD = 2
)

func stNode(id topology.CellID) int { return 3 + int(id) }

// CutGraph is a problem's s-t graph (Fig. 7), built once and re-solved
// in place. Its nodes, its infinite edges and the compute edges of all
// cells but the output come from the problem's view and hardware, which
// do not change; a solve re-prices, through maxflow.SetCap, only the
// edges that depend on the link or on the Lagrangian weight λ, and
// clears the flow with Reset. The λ-weighted back-end delay edges F→cell
// exist at every λ and carry zero capacity at λ = 0. Dinic's BFS, its
// DFS and the residual search all skip a zero-capacity edge, so a solve
// returns the cut of a fresh graph holding only the positive edges, in
// the same order.
//
// A CutGraph is mutable and not safe for concurrent use. Its owner
// keeps it to itself: Generate and Frontier build one per call, and the
// adaptive controller keeps one for its floor solves.
type CutGraph struct {
	// pr is the structure the graph was built from: Graph, HW, AggDelay
	// and the view. Its Link is not read.
	pr *Problem
	v  *View
	fg *maxflow.Graph

	raw    int       // F→D
	out    int       // output cell→B
	outE   float64   // the output cell's compute energy
	agg    []int     // F→cell, one per cell with a positive back-end delay
	aggD   []float64 // those cells' back-end delays
	tx, rx []int     // per transfer group: u→v / v→u, or u→T / R→u
	side   Placement // scratch placement read off the last cut
}

// NewCutGraph builds pr's s-t graph. Its capacities are set by each
// solve.
func (pr *Problem) NewCutGraph() *CutGraph {
	g := pr.Graph
	v := pr.View()
	cg := &CutGraph{
		pr:   pr,
		v:    v,
		fg:   maxflow.New(3 + len(g.Cells) + 2*v.multi),
		tx:   make([]int, len(v.Groups)),
		rx:   make([]int, len(v.Groups)),
		side: make(Placement, len(g.Cells)),
	}
	fg := cg.fg
	nextAux := 3 + len(g.Cells)

	// F→D: cost of shipping the raw segment.
	cg.raw = fg.AddEdge(nodeF, nodeD, 0)
	// D→reader (∞): the grouped constraint.
	for _, id := range v.Readers {
		fg.AddEdge(nodeD, stNode(id), maxflow.Inf)
	}
	// cell→B: in-sensor compute energy (+ result transmission for the
	// output cell, paid whenever it stays on the sensor).
	//
	// The Lagrangian delay terms cover exactly the ADDITIVE components
	// of the end-to-end model: wireless air time (on transfer edges and
	// F→D) and, when an AggDelay model is present, the serialized
	// back-end latency of offloaded cells (on F→cell edges). Sensor-side
	// cell latencies are deliberately NOT penalized — in-sensor cells
	// are parallel hardware whose critical path is bounded by T_F, so a
	// sum-of-delays penalty would push the sweep away from exactly the
	// placements that meet tight limits. As λ grows the sweep therefore
	// walks from the energy-optimal cut toward the in-sensor engine,
	// tracing delay-feasible intermediates; each candidate's true delay
	// is still checked by the caller's delay model.
	for i := range g.Cells {
		id := topology.CellID(i)
		w := pr.HW.Energy(id)
		e := fg.AddEdge(stNode(id), nodeB, w)
		if id == g.Output {
			cg.out, cg.outE = e, w
		}
		if pr.AggDelay != nil {
			if d := pr.AggDelay(id); d > 0 {
				cg.agg = append(cg.agg, fg.AddEdge(nodeF, stNode(id), 0))
				cg.aggD = append(cg.aggD, d)
			}
		}
	}
	// Data dependencies, one transfer group at a time. Single-consumer
	// groups use the paper's direct construction (u→v transmit, v→u
	// receive). Multi-consumer groups price the broadcast once per
	// direction via two auxiliary nodes:
	//
	//   u→T (tx), T→v (∞ each): T settles on the aggregator side, so
	//   u→T is cut exactly when u is on the sensor and some consumer is
	//   not;
	//   v→R (∞ each), R→u (rx): R is dragged to the sensor side by any
	//   sensor-side consumer, so R→u is cut exactly when u is on the
	//   aggregator and some consumer is not.
	for gi, tg := range v.Groups {
		u := stNode(tg.From)
		if len(tg.Consumers) == 1 {
			w := stNode(tg.Consumers[0])
			cg.tx[gi] = fg.AddEdge(u, w, 0)
			cg.rx[gi] = fg.AddEdge(w, u, 0)
			continue
		}
		txAux, rxAux := nextAux, nextAux+1
		nextAux += 2
		cg.tx[gi] = fg.AddEdge(u, txAux, 0)
		cg.rx[gi] = fg.AddEdge(rxAux, u, 0)
		for _, c := range tg.Consumers {
			fg.AddEdge(txAux, stNode(c), maxflow.Inf)
			fg.AddEdge(stNode(c), rxAux, maxflow.Inf)
		}
	}
	return cg
}

// cut prices the graph at link and λ, solves it, and returns the
// placement read off the source side. The placement is the graph's
// scratch, overwritten by the next cut.
func (cg *CutGraph) cut(link wireless.Model, lambda float64) Placement {
	fg := cg.fg
	raw := link.Cost(cg.pr.Graph.SourceBits)
	fg.SetCap(cg.raw, raw.TxEnergy+lambda*raw.Delay)
	res := link.Cost(wireless.ValueBits)
	w := cg.outE
	w += res.TxEnergy + lambda*res.Delay
	fg.SetCap(cg.out, w)
	if lambda > 0 {
		for k, e := range cg.agg {
			fg.SetCap(e, lambda*cg.aggD[k])
		}
	} else {
		for _, e := range cg.agg {
			fg.SetCap(e, 0)
		}
	}
	for gi := range cg.v.Groups {
		tr := link.Cost(cg.v.Groups[gi].Bits)
		fg.SetCap(cg.tx[gi], tr.TxEnergy+lambda*tr.Delay)
		fg.SetCap(cg.rx[gi], tr.RxEnergy+lambda*tr.Delay)
	}
	fg.Reset()
	_, side := fg.Cut(nodeF, nodeB)
	for i := range cg.side {
		if side[3+i] {
			cg.side[i] = Sensor
		} else {
			cg.side[i] = Aggregator
		}
	}
	return cg.side
}

// MinCut solves pr's unconstrained problem (§3.2.2) on the graph and
// returns the energy-optimal placement and its sensor energy under pr.
// pr must share the graph's structure: the problem the graph was built
// from, or a copy of it with another Link or SensingEnergy, as the
// adaptive controller re-prices it.
func (cg *CutGraph) MinCut(pr *Problem) (Placement, float64) {
	if pr.Graph != cg.pr.Graph || pr.HW != cg.pr.HW {
		panic("partition: CutGraph solved for a problem over another graph or hardware")
	}
	p := append(Placement(nil), cg.cut(pr.Link, 0)...)
	return p, pr.SensorEnergy(p)
}

// swept is one distinct placement of the λ sweep with the first weight
// that produced it.
type swept struct {
	p      Placement
	lambda float64
}

// sweep solves the min cut at every λ of the ladder on one graph and
// returns the distinct placements in ladder order.
func (pr *Problem) sweep() []swept {
	cg := pr.NewCutGraph()
	var out []swept
	for _, l := range lambdaLadder {
		p := cg.cut(pr.Link, l)
		if !sweptHas(out, p) {
			out = append(out, swept{p: append(Placement(nil), p...), lambda: l})
		}
	}
	return out
}

func sweptHas(cands []swept, p Placement) bool {
	for _, c := range cands {
		if c.p.Equal(p) {
			return true
		}
	}
	return false
}
