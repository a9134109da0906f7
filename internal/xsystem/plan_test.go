package xsystem

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"xpro/internal/aggregator"
	"xpro/internal/celllib"
	"xpro/internal/ensemble"
	"xpro/internal/partition"
	"xpro/internal/sensornode"
	"xpro/internal/topology"
	"xpro/internal/wireless"
)

// The property tests in this file check the compiled execution plan
// against the graph methods and cost formulas it replaces, on the six
// cases and on synthetic topologies, under random placements.

// planGraph is one topology the plan properties are checked on.
type planGraph struct {
	name  string
	graph *topology.Graph
	ens   *ensemble.Ensemble
}

func planGraphs(t *testing.T) []planGraph {
	t.Helper()
	var out []planGraph
	for _, cf := range sixCases(t) {
		out = append(out, planGraph{name: cf.sym, graph: cf.graph, ens: cf.ens})
	}
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g, err := topology.Synthetic(rng, 48+rng.Intn(160))
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, planGraph{name: fmt.Sprintf("synthetic-%d", seed), graph: g})
	}
	return out
}

// energyReference is EnergyPerEvent as computed before placements were
// compiled: straight from the graph methods.
func energyReference(s *System, p partition.Placement) Energy {
	g := s.Graph
	var e Energy
	e.Sensing = s.problem.SensingEnergy
	for _, id := range p.SensorCells() {
		e.SensorCompute += s.HW.Energy(id)
	}
	for _, id := range p.AggregatorCells() {
		e.AggCompute += s.CPU.CellCost(g.Cells[id].Spec).Energy
	}
	rawSent := false
	for _, id := range g.SourceReaders() {
		if !p.OnSensor(id) {
			rawSent = true
			break
		}
	}
	if rawSent {
		tr := s.Link.Cost(g.SourceBits)
		e.SensorTx += tr.TxEnergy
		e.AggRx += tr.RxEnergy
	}
	for _, tg := range g.TransferGroups() {
		fromS := p.OnSensor(tg.From)
		crosses := false
		for _, c := range tg.Consumers {
			if p.OnSensor(c) != fromS {
				crosses = true
				break
			}
		}
		if !crosses {
			continue
		}
		tr := s.Link.Cost(tg.Bits)
		if fromS {
			e.SensorTx += tr.TxEnergy
			e.AggRx += tr.RxEnergy
		} else {
			e.SensorRx += tr.RxEnergy
			e.AggTx += tr.TxEnergy
		}
	}
	if p.OnSensor(g.Output) {
		tr := s.Link.Cost(wireless.ValueBits)
		e.SensorTx += tr.TxEnergy
		e.AggRx += tr.RxEnergy
	}
	return e
}

// delayReference is DelayOf as computed before placements were
// compiled: straight from the graph methods.
func delayReference(s *System, p partition.Placement) Delay {
	g := s.Graph
	var d Delay
	order, err := g.TopoOrder()
	if err != nil {
		panic(err)
	}
	finish := make([]float64, len(g.Cells))
	for _, id := range order {
		if !p.OnSensor(id) {
			continue
		}
		start := 0.0
		for _, e := range g.InEdges(id) {
			if e.From == topology.SourceID || !p.OnSensor(e.From) {
				continue
			}
			if finish[e.From] > start {
				start = finish[e.From]
			}
		}
		finish[id] = start + s.HW.Delay(id)
		if finish[id] > d.FrontEnd {
			d.FrontEnd = finish[id]
		}
	}
	rawSent := false
	for _, id := range g.SourceReaders() {
		if !p.OnSensor(id) {
			rawSent = true
			break
		}
	}
	if rawSent {
		d.Wireless += s.Link.Cost(g.SourceBits).Delay
	}
	for _, tg := range g.TransferGroups() {
		fromS := p.OnSensor(tg.From)
		for _, c := range tg.Consumers {
			if p.OnSensor(c) != fromS {
				d.Wireless += s.Link.Cost(tg.Bits).Delay
				break
			}
		}
	}
	if p.OnSensor(g.Output) {
		d.Wireless += s.Link.Cost(wireless.ValueBits).Delay
	}
	for _, id := range p.AggregatorCells() {
		d.BackEnd += s.CPU.CellCost(g.Cells[id].Spec).Delay
	}
	return d
}

// byPairReference is the per-event byPair map the walks used to build:
// byPair[consumer][producer] lists the crossing groups feeding that
// consumer from that producer, for cells on tiers tierOf.
func byPairReference(g *topology.Graph, tierOf func(topology.CellID) int) map[topology.CellID]map[topology.CellID][]int {
	byPair := make(map[topology.CellID]map[topology.CellID][]int)
	for gi, tg := range g.TransferGroups() {
		for _, c := range tg.Consumers {
			if tierOf(c) == tierOf(tg.From) {
				continue
			}
			if byPair[c] == nil {
				byPair[c] = make(map[topology.CellID][]int)
			}
			byPair[c][tg.From] = append(byPair[c][tg.From], gi)
		}
	}
	return byPair
}

// checkCrossings compares a plan's per-consumer lists with byPair.
func checkCrossings(t *testing.T, name string, g *topology.Graph, gp *graphPlan, cx crossings, tierOf func(topology.CellID) int) {
	t.Helper()
	want := byPairReference(g, tierOf)
	for id := range g.Cells {
		c := topology.CellID(id)
		for k := gp.inStart[id]; k < gp.inStart[id+1]; k++ {
			from := gp.ins[k].From
			got := cx.pairGroups(k)
			var exp []int
			if from != topology.SourceID && tierOf(from) != tierOf(c) {
				exp = want[c][from]
			}
			if len(got) != len(exp) || (len(got) > 0 && !reflect.DeepEqual(got, exp)) {
				t.Fatalf("%s: cell %d in-edge from %d waits on groups %v, byPair %v", name, id, from, got, exp)
			}
		}
	}
}

func TestPlanMatchesGraph(t *testing.T) {
	for gi, pg := range planGraphs(t) {
		g := pg.graph
		rng := rand.New(rand.NewSource(int64(40 + gi)))
		link := wireless.Models()[gi%3]
		sys, err := New(g, pg.ens, celllib.P90, link, aggregator.CortexA8(), partition.InSensor(g), sensornode.DefaultSampleRateHz)
		if err != nil {
			t.Fatal(err)
		}
		gp := sys.plan.graphPlan

		// Graph level: CSR in-edges, transfer groups, source readers.
		for id := range g.Cells {
			if got, want := gp.inEdges(topology.CellID(id)), g.InEdges(topology.CellID(id)); !reflect.DeepEqual(got, want) && len(got)+len(want) > 0 {
				t.Fatalf("%s: cell %d in-edges %v, graph %v", pg.name, id, got, want)
			}
			for k := gp.inStart[id]; k < gp.inStart[id+1]; k++ {
				if g.Edges[gp.inEdge[k]] != gp.ins[k] {
					t.Fatalf("%s: in-edge slot %d indexes edge %d, not its own", pg.name, k, gp.inEdge[k])
				}
			}
			out := gp.outEdge[gp.outStart[id]:gp.outStart[id+1]]
			var wantOut []int
			for ei, e := range g.Edges {
				if e.From == topology.CellID(id) {
					wantOut = append(wantOut, ei)
				}
			}
			if len(out)+len(wantOut) > 0 && !reflect.DeepEqual(out, wantOut) {
				t.Fatalf("%s: cell %d out-edges %v, graph %v", pg.name, id, out, wantOut)
			}
		}
		tgs := g.TransferGroups()
		if len(tgs) != len(gp.groups) {
			t.Fatalf("%s: %d groups, graph has %d", pg.name, len(gp.groups), len(tgs))
		}
		for i, tg := range tgs {
			got := gp.groups[i]
			if !reflect.DeepEqual(got.TransferGroup, tg) {
				t.Fatalf("%s: group %d = %+v, graph %+v", pg.name, i, got.TransferGroup, tg)
			}
			if tg.Values > 0 && got.per != tg.Bits/int64(tg.Values) {
				t.Fatalf("%s: group %d per-value width %d of %+v", pg.name, i, got.per, tg)
			}
			off := 0
			if tg.Class == topology.PayloadApprox {
				off = g.Cells[tg.From].OutValues
			}
			if got.off != off {
				t.Fatalf("%s: group %d offset %d, want %d", pg.name, i, got.off, off)
			}
		}
		if !reflect.DeepEqual(gp.readers, g.SourceReaders()) {
			t.Fatalf("%s: readers %v, graph %v", pg.name, gp.readers, g.SourceReaders())
		}

		// Placement level, on random grouped 2-end placements and the
		// two single-end extremes.
		pls := []partition.Placement{partition.InSensor(g), partition.InAggregator(g)}
		for i := 0; i < 8; i++ {
			pls = append(pls, randomGroupedPlacement(rng, g))
		}
		for pi, p := range pls {
			s, err := sys.WithPlacement(p)
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("%s/placement-%d", pg.name, pi)
			if got, want := s.DelayPerEvent(), delayReference(s, p); got != want {
				t.Fatalf("%s: cached delay %+v, fresh %+v", name, got, want)
			}
			if got, want := s.DelayOf(p), delayReference(s, p); got != want {
				t.Fatalf("%s: DelayOf %+v, fresh %+v", name, got, want)
			}
			if got, want := s.EnergyPerEvent(), energyReference(s, p); got != want {
				t.Fatalf("%s: cached energy %+v, fresh %+v", name, got, want)
			}
			ns, na := p.Counts()
			if s.plan.sensorCells != ns || s.plan.aggCells != na {
				t.Fatalf("%s: counts %d/%d, want %d/%d", name, s.plan.sensorCells, s.plan.aggCells, ns, na)
			}
			for id := range g.Cells {
				e, d := s.CellCost(topology.CellID(id))
				cc := s.plan.cost[id]
				if cc.energy != e || cc.delay != d || (cc.end == "sensor") != p.OnSensor(topology.CellID(id)) {
					t.Fatalf("%s: cell %d cost %+v, want %v/%v", name, id, cc, e, d)
				}
			}
			checkCrossings(t, name, g, gp, s.plan.crossings, func(id topology.CellID) int { return int(p[id]) })
		}

		// Tier level, on random tier-monotone placements and their
		// collapse-ladder rungs.
		ts, err := ThreeTier(sys, wireless.Model3())
		if err != nil {
			t.Fatal(err)
		}
		tpls := []partition.TierPlacement{ts.TierPlacement}
		for i := 0; i < 6; i++ {
			tpls = append(tpls, randomTierPlacement(rng, g, 3))
		}
		for _, p := range tpls[:len(tpls):len(tpls)] {
			tpls = append(tpls, p.CapAt(1), p.CapAt(0))
		}
		for pi, p := range tpls {
			s, err := ts.WithTierPlacement(p)
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("%s/tier-placement-%d", pg.name, pi)
			if s.plan.graphPlan != gp {
				t.Fatalf("%s: sibling does not share the graph plan", name)
			}
			collapsed := p.Collapse(0)
			if got, want := s.DelayPerEvent(), delayReference(s.System, collapsed); got != want {
				t.Fatalf("%s: cached delay %+v, fresh %+v", name, got, want)
			}
			if got, want := s.EnergyPerEvent(), energyReference(s.System, collapsed); got != want {
				t.Fatalf("%s: cached energy %+v, fresh %+v", name, got, want)
			}
			tp := s.tplan
			readers := g.SourceReaders()
			if len(readers) > 0 && tp.srcTier != p[readers[0]] {
				t.Fatalf("%s: source tier %d, want %d", name, tp.srcTier, p[readers[0]])
			}
			if upper := len(p) - p.Counts(3)[0]; tp.upperCells != upper {
				t.Fatalf("%s: %d upper cells, want %d", name, tp.upperCells, upper)
			}
			legs := int(tp.srcTier)
			for i, tg := range tgs {
				top := p[tg.From]
				for _, c := range tg.Consumers {
					if p[c] > top {
						top = p[c]
					}
				}
				want := hopSpan{base: p[tg.From], top: top, legOff: legs}
				if tp.spans[i] != want {
					t.Fatalf("%s: group %d span %+v, want %+v", name, i, tp.spans[i], want)
				}
				legs += int(top - p[tg.From])
			}
			if tp.legs != legs {
				t.Fatalf("%s: %d legs, want %d", name, tp.legs, legs)
			}
			checkCrossings(t, name, g, gp, tp.crossings, func(id topology.CellID) int { return int(p[id]) })
		}
	}
}

// TestDelayOfReadsReceiverLink: a System copy whose Link was swapped —
// the adaptive controller's derated re-pricing — prices DelayOf on the
// swapped link, exactly as a System built fresh on it.
func TestDelayOfReadsReceiverLink(t *testing.T) {
	f := getFixture(t)
	g := f.graph
	sys := newSystem(t, f, partition.InSensor(g))
	rng := rand.New(rand.NewSource(3))
	derated := wireless.Model2()
	derated.RateBps /= 3.7
	derated.TxJPerBit *= 2.2
	copied := *sys
	copied.Link = derated
	fresh, err := New(g, f.ens, celllib.P90, derated, aggregator.CortexA8(), partition.InSensor(g), sensornode.DefaultSampleRateHz)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		p := randomGroupedPlacement(rng, g)
		got, want := copied.DelayOf(p), fresh.DelayOf(p)
		if got != want {
			t.Fatalf("placement %d: swapped-link DelayOf %+v, fresh system %+v", i, got, want)
		}
		if got == sys.DelayOf(p) && got.Wireless > 0 {
			t.Fatalf("placement %d: swapped-link DelayOf ignored the link", i)
		}
		if sib, err := fresh.WithPlacement(p); err != nil || sib.DelayPerEvent() != want {
			t.Fatalf("placement %d: fresh sibling's compiled delay %+v, DelayOf %+v (%v)", i, sib.DelayPerEvent(), want, err)
		}
	}
}
