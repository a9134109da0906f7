package partition

import (
	"fmt"
	"math"
	"sort"

	"xpro/internal/maxflow"
	"xpro/internal/topology"
	"xpro/internal/wireless"
)

// This file keeps the generator's per-call pricing as it was before
// pricing was compiled: a fresh s-t graph for every min cut, and source
// readers and transfer groups re-derived from the graph on every call.
// The differential battery checks the compiled path against it. It also
// keeps the k-tier hop re-cut as it was before it solved the layered
// graph: a binary s-t graph of its own with one node per cell.

// refSensorEnergy prices p like SensorEnergy, deriving the placement's
// sensor cells, the source readers and the transfer groups afresh.
func (pr *Problem) refSensorEnergy(p Placement) float64 {
	g := pr.Graph
	e := pr.SensingEnergy
	for _, id := range p.SensorCells() {
		e += pr.HW.Energy(id)
	}
	rawSent := false
	for _, id := range g.SourceReaders() {
		if !p.OnSensor(id) {
			rawSent = true
			break
		}
	}
	if rawSent {
		e += pr.Link.Cost(g.SourceBits).TxEnergy
	}
	for _, tg := range g.TransferGroups() {
		fromS := p.OnSensor(tg.From)
		anyOther := false
		for _, c := range tg.Consumers {
			if p.OnSensor(c) != fromS {
				anyOther = true
				break
			}
		}
		if !anyOther {
			continue
		}
		if fromS {
			e += pr.Link.Cost(tg.Bits).TxEnergy
		} else {
			e += pr.Link.Cost(tg.Bits).RxEnergy
		}
	}
	if p.OnSensor(g.Output) {
		e += pr.Link.Cost(wireless.ValueBits).TxEnergy
	}
	return e
}

// stGraph builds a fresh s-t graph with capacities energy + lambda·delay,
// in the node layout of CutGraph. The back-end delay edges F→cell exist
// only when lambda > 0.
func (pr *Problem) stGraph(lambda float64) *maxflow.Graph {
	g := pr.Graph
	groups := g.TransferGroups()
	multi := 0
	for _, tg := range groups {
		if len(tg.Consumers) > 1 {
			multi++
		}
	}
	fg := maxflow.New(3 + len(g.Cells) + 2*multi)
	nextAux := 3 + len(g.Cells)

	raw := pr.Link.Cost(g.SourceBits)
	fg.AddEdge(nodeF, nodeD, raw.TxEnergy+lambda*raw.Delay)
	for _, id := range g.SourceReaders() {
		fg.AddEdge(nodeD, stNode(id), maxflow.Inf)
	}
	for i := range g.Cells {
		id := topology.CellID(i)
		w := pr.HW.Energy(id)
		if id == g.Output {
			res := pr.Link.Cost(wireless.ValueBits)
			w += res.TxEnergy + lambda*res.Delay
		}
		fg.AddEdge(stNode(id), nodeB, w)
		if lambda > 0 && pr.AggDelay != nil {
			if d := pr.AggDelay(id); d > 0 {
				fg.AddEdge(nodeF, stNode(id), lambda*d)
			}
		}
	}
	for _, tg := range groups {
		tr := pr.Link.Cost(tg.Bits)
		u := stNode(tg.From)
		if len(tg.Consumers) == 1 {
			v := stNode(tg.Consumers[0])
			fg.AddEdge(u, v, tr.TxEnergy+lambda*tr.Delay)
			fg.AddEdge(v, u, tr.RxEnergy+lambda*tr.Delay)
			continue
		}
		txAux, rxAux := nextAux, nextAux+1
		nextAux += 2
		fg.AddEdge(u, txAux, tr.TxEnergy+lambda*tr.Delay)
		fg.AddEdge(rxAux, u, tr.RxEnergy+lambda*tr.Delay)
		for _, c := range tg.Consumers {
			fg.AddEdge(txAux, stNode(c), maxflow.Inf)
			fg.AddEdge(stNode(c), rxAux, maxflow.Inf)
		}
	}
	return fg
}

// placementFromSide converts a min-cut source side into a Placement.
func (pr *Problem) placementFromSide(side []bool) Placement {
	p := make(Placement, len(pr.Graph.Cells))
	for i := range pr.Graph.Cells {
		if side[3+i] {
			p[i] = Sensor
		} else {
			p[i] = Aggregator
		}
	}
	return p
}

// refCut solves a fresh graph at lambda.
func (pr *Problem) refCut(lambda float64) Placement {
	_, side, _ := pr.stGraph(lambda).MinCut(nodeF, nodeB)
	return pr.placementFromSide(side)
}

func (pr *Problem) refMinCut() (Placement, float64) {
	p := pr.refCut(0)
	return p, pr.refSensorEnergy(p)
}

// refGenerate is Generate on fresh graphs, without telemetry.
func (pr *Problem) refGenerate(delayOf func(Placement) float64, limit float64) (Result, error) {
	if delayOf == nil || limit <= 0 {
		return Result{}, fmt.Errorf("partition: bad reference input")
	}
	type cand struct {
		p      Placement
		lambda float64
	}
	var cands []cand
	seen := func(p Placement) bool {
		for _, c := range cands {
			if c.p.Equal(p) {
				return true
			}
		}
		return false
	}
	for _, l := range lambdaLadder {
		if p := pr.refCut(l); !seen(p) {
			cands = append(cands, cand{p: p, lambda: l})
		}
	}
	for _, c := range append([]cand(nil), cands...) {
		if delayOf(c.p) <= limit {
			continue
		}
		for _, q := range pr.refGreedyRepair(c.p, delayOf, limit) {
			if !seen(q) {
				cands = append(cands, cand{p: q, lambda: c.lambda})
			}
		}
	}
	best := Result{Energy: -1}
	for _, c := range cands {
		d := delayOf(c.p)
		if d > limit {
			continue
		}
		e := pr.refSensorEnergy(c.p)
		if best.Energy < 0 || e < best.Energy {
			best = Result{Placement: c.p, Energy: e, Delay: d, Lambda: c.lambda}
		}
	}
	if best.Energy >= 0 {
		return best, nil
	}
	var fallback Result
	for _, p := range []Placement{InSensor(pr.Graph), InAggregator(pr.Graph)} {
		d := delayOf(p)
		if d > limit*(1+1e-9) {
			continue
		}
		e := pr.refSensorEnergy(p)
		if fallback.Placement == nil || e < fallback.Energy {
			fallback = Result{Placement: p, Energy: e, Delay: d, Fallback: true}
		}
	}
	if fallback.Placement == nil {
		return Result{}, fmt.Errorf("partition: delay limit %v infeasible even for single-end engines", limit)
	}
	return fallback, nil
}

// refGreedyRepair is greedyRepair with its map-based reader set.
func (pr *Problem) refGreedyRepair(start Placement, delayOf func(Placement) float64, limit float64) []Placement {
	g := pr.Graph
	readerSet := make(map[topology.CellID]bool)
	for _, id := range g.SourceReaders() {
		readerSet[id] = true
	}
	cur := append(Placement(nil), start...)
	curDelay := delayOf(cur)
	curEnergy := pr.refSensorEnergy(cur)
	var out []Placement
	for step := 0; step < len(g.Cells) && curDelay > limit; step++ {
		type move struct {
			p      Placement
			delay  float64
			energy float64
		}
		var best *move
		tried := make(map[topology.CellID]bool)
		for _, id := range cur.AggregatorCells() {
			if tried[id] {
				continue
			}
			q := append(Placement(nil), cur...)
			if readerSet[id] {
				for _, r := range g.SourceReaders() {
					q[r] = Sensor
					tried[r] = true
				}
			} else {
				q[id] = Sensor
				tried[id] = true
			}
			d := delayOf(q)
			if d >= curDelay {
				continue
			}
			e := pr.refSensorEnergy(q)
			if best == nil ||
				(e-curEnergy)/(curDelay-d) < (best.energy-curEnergy)/(curDelay-best.delay) {
				best = &move{p: q, delay: d, energy: e}
			}
		}
		if best == nil {
			break
		}
		cur, curDelay, curEnergy = best.p, best.delay, best.energy
		out = append(out, append(Placement(nil), cur...))
	}
	return out
}

// refFrontier is Frontier on fresh graphs.
func (pr *Problem) refFrontier(delayOf func(Placement) float64) []FrontierPoint {
	var cands []FrontierPoint
	add := func(p Placement, lambda float64) {
		for _, c := range cands {
			if c.Placement.Equal(p) {
				return
			}
		}
		cands = append(cands, FrontierPoint{Placement: p, Energy: pr.refSensorEnergy(p), Delay: delayOf(p), Lambda: lambda})
	}
	for _, l := range lambdaLadder {
		add(pr.refCut(l), l)
	}
	add(InSensor(pr.Graph), -1)
	add(InAggregator(pr.Graph), -1)
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
	return front
}

// refRecutHop is RecutHop on its own binary graph: free cells' tier
// costs as node side costs shifted to ≥ 0, every other cell pinned by
// an ∞ edge, and the raw segment on an edge into the first reader.
func (tp *TieredProblem) refRecutHop(p TierPlacement, h int) (TierPlacement, float64, error) {
	if err := tp.CheckPlacement(p); err != nil {
		return nil, 0, err
	}
	g := tp.Graph
	lowT, highT := Tier(h), Tier(h+1)
	const (
		nodeS = 0 // low side (tier h)
		nodeT = 1 // high side (tier h+1)
	)
	cellNode := func(id topology.CellID) int { return 2 + int(id) }
	groups := g.TransferGroups()
	multi := 0
	for _, tg := range groups {
		if len(tg.Consumers) > 1 {
			multi++
		}
	}
	fg := maxflow.New(2 + len(g.Cells) + multi)
	nextAux := 2 + len(g.Cells)
	readers := g.SourceReaders()
	free := func(id topology.CellID) bool { return p[id] == lowT || p[id] == highT }

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
		if id == g.Output {
			if tp.ResultTier > lowT {
				lowCost += tp.hopCost(h, wireless.ValueBits, true)
			}
			if tp.ResultTier < highT {
				highCost += tp.hopCost(h, wireless.ValueBits, false)
			}
		}
		shift := math.Min(lowCost, highCost)
		if c := highCost - shift; c > 0 {
			fg.AddEdge(nodeS, cellNode(id), c)
		}
		if c := lowCost - shift; c > 0 {
			fg.AddEdge(cellNode(id), nodeT, c)
		}
	}
	if len(readers) > 0 && free(readers[0]) {
		for _, id := range readers[1:] {
			fg.AddEdge(cellNode(readers[0]), cellNode(id), maxflow.Inf)
			fg.AddEdge(cellNode(id), cellNode(readers[0]), maxflow.Inf)
		}
		fg.AddEdge(nodeS, cellNode(readers[0]), tp.hopCost(h, g.SourceBits, true))
	}
	for _, e := range g.Edges {
		if e.From == topology.SourceID {
			continue
		}
		fg.AddEdge(cellNode(e.To), cellNode(e.From), maxflow.Inf)
	}
	for _, tg := range groups {
		if p[tg.From] > highT {
			continue
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
		return nil, 0, fmt.Errorf("partition: reference re-cut emitted infeasible placement: %w", err)
	}
	cq, cp := tp.Cost(q), tp.Cost(p)
	if cp < cq {
		return p.Clone(), cp, nil
	}
	return q, cq, nil
}
