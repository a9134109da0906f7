package partition

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"xpro/internal/partition/oracle"
	"xpro/internal/topology"
	"xpro/internal/wireless"
)

// costTol is the float tolerance of the batteries, matching the 2-end
// exhaustive check.
func costTol(ref float64) float64 { return 1e-12 + 1e-9*math.Abs(ref) }

// enumerable bounds the raw assignment spaces the batteries enumerate.
const enumerable = 1 << 21

// oracleProblem poses tp to the exhaustive enumerator.
func oracleProblem(tp *TieredProblem) *oracle.Problem {
	g := tp.Graph
	op := &oracle.Problem{Cells: len(g.Cells), Tiers: tp.K()}
	for _, e := range g.Edges {
		if e.From == topology.SourceID {
			continue
		}
		op.Edges = append(op.Edges, [2]int{int(e.From), int(e.To)})
	}
	if readers := g.SourceReaders(); len(readers) > 1 {
		grp := make([]int, len(readers))
		for i, id := range readers {
			grp[i] = int(id)
		}
		op.Groups = append(op.Groups, grp)
	}
	return op
}

// oracleOptimum brute-forces tp's optimum under Cost. ok is false when
// the assignment space is beyond enumerable.
func oracleOptimum(t testing.TB, tp *TieredProblem) (p TierPlacement, cost float64, ok bool) {
	t.Helper()
	op := oracleProblem(tp)
	if op.Space() > enumerable {
		return nil, 0, false
	}
	buf := make(TierPlacement, op.Cells)
	opt, err := op.Optimal(func(a []int) float64 {
		for i, tier := range a {
			buf[i] = Tier(tier)
		}
		return tp.Cost(buf)
	})
	if err != nil {
		t.Fatal(err)
	}
	p = make(TierPlacement, len(opt.Assign))
	for i, tier := range opt.Assign {
		p[i] = Tier(tier)
	}
	return p, opt.Cost, true
}

// TestSolveMatchesOracle: on every enumerable tiny DAG, across tier
// counts, Solve must return exactly the oracle optimum — cost equal and
// placement identical.
func TestSolveMatchesOracle(t *testing.T) {
	for _, k := range []int{2, 3, 4} {
		for _, seed := range []int64{1, 2, 3, 5, 8, 13} {
			rng := rand.New(rand.NewSource(seed))
			g := tinyDAG(rng, 4+rng.Intn(9)) // 4..12 cells
			tp, err := tinyTiered(g, k)
			if err != nil {
				t.Fatal(err)
			}
			opt, optC, ok := oracleOptimum(t, tp)
			if !ok {
				continue
			}
			res, err := tp.Solve()
			if err != nil {
				t.Fatalf("k=%d seed=%d: %v", k, seed, err)
			}
			if math.Abs(res.Cost-optC) > costTol(optC) {
				t.Errorf("k=%d seed=%d: solve cost %v, oracle optimum %v", k, seed, res.Cost, optC)
			}
			if !res.Placement.Equal(opt) {
				t.Errorf("k=%d seed=%d: placement %v, oracle %v", k, seed, res.Placement, opt)
			}
		}
	}
}

// TestSolveCertificate: the max flow of the layered graph plus the
// sensing term, which no placement changes, must equal Cost of the
// placement read off the cut. Every feasible placement is a cut of that
// graph, so the flow bounds each one's Cost from below and the equality
// proves the placement optimal, instance by instance. The result must
// also be no worse than any corner placement or the best single-hop
// bi-partition.
func TestSolveCertificate(t *testing.T) {
	certify := func(name string, tp *TieredProblem) {
		t.Helper()
		p, flow := tp.layered(nil, -1).cut()
		if err := tp.CheckPlacement(p); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cost := tp.Cost(p)
		if bound := flow + tp.SensingEnergy*tp.Tiers[0].EnergyWeight; math.Abs(bound-cost) > 1e-9*cost {
			t.Errorf("%s: flow bound %v, Cost %v (gap %.3g)", name, bound, cost, bound-cost)
		}
		res, err := tp.Solve()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Placement.Equal(p) || res.Cost != cost {
			t.Fatalf("%s: Solve %v at %v, cut %v at %v", name, res.Placement, res.Cost, p, cost)
		}
		for tier := 0; tier < tp.K(); tier++ {
			if c := tp.Cost(AllAt(tp.Graph, Tier(tier))); cost > c+costTol(c) {
				t.Errorf("%s: %v worse than every cell on tier %d (%v)", name, cost, tier, c)
			}
		}
		_, biC, biH, err := tp.BestBiPartition()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if cost > biC+costTol(biC) {
			t.Errorf("%s: %v worse than the hop-%d bi-partition %v", name, cost, biH, biC)
		}
	}
	synthetic := 0
	for seed := int64(1); synthetic < 120; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g, err := topology.Synthetic(rng, 8+rng.Intn(250))
		if err != nil {
			continue
		}
		synthetic++
		for k := 3; k <= 5; k++ {
			tp, err := tinyTiered(g, k)
			if err != nil {
				t.Fatal(err)
			}
			certify(fmt.Sprintf("synthetic seed=%d k=%d", seed, k), tp)
		}
	}
	for k := 2; k <= 4; k++ {
		for seed := int64(1); seed <= 20; seed++ {
			rng := rand.New(rand.NewSource(seed))
			tp, err := tinyTiered(tinyDAG(rng, 4+rng.Intn(9)), k)
			if err != nil {
				t.Fatal(err)
			}
			certify(fmt.Sprintf("tiny seed=%d k=%d", seed, k), tp)
		}
	}
}

// randomMonotone draws a feasible placement of tp, or nil: random
// tiers, the source readers on one of them, then every cell lifted to
// its producers' tiers in topological order.
func randomMonotone(rng *rand.Rand, tp *TieredProblem) TierPlacement {
	g := tp.Graph
	p := make(TierPlacement, len(g.Cells))
	for i := range p {
		p[i] = Tier(rng.Intn(tp.K()))
	}
	rt := Tier(rng.Intn(tp.K()))
	for _, r := range g.SourceReaders() {
		p[r] = rt
	}
	order, err := g.TopoOrder()
	if err != nil {
		return nil
	}
	for _, id := range order {
		for _, e := range g.InEdges(id) {
			if e.From != topology.SourceID && p[e.From] > p[id] {
				p[id] = p[e.From]
			}
		}
	}
	if tp.CheckPlacement(p) != nil {
		return nil
	}
	return p
}

// TestRecutHopMatchesReference: on tiny and synthetic graphs at k = 2–5,
// with and without a dead hop, re-cutting every hop of the corners, the
// optimum and random monotone placements on the layered graph returns
// the reference re-cut's placement at a bit-identical cost.
func TestRecutHopMatchesReference(t *testing.T) {
	recuts := 0
	for k := 2; k <= 5; k++ {
		for seed := int64(1); seed <= 10; seed++ {
			rng := rand.New(rand.NewSource(seed))
			graphs := []*topology.Graph{tinyDAG(rng, 4+rng.Intn(9))}
			if g, err := topology.Synthetic(rng, 256); err == nil {
				graphs = append(graphs, g)
			}
			for gi, g := range graphs {
				live, err := tinyTiered(g, k)
				if err != nil {
					t.Fatal(err)
				}
				dead := *live
				dead.Hops = append([]Hop(nil), live.Hops...)
				dead.Hops[int(seed)%(k-1)].BandwidthScale = 0
				for _, tp := range []*TieredProblem{live, &dead} {
					var starts []TierPlacement
					for tier := 0; tier < k; tier++ {
						starts = append(starts, AllAt(g, Tier(tier)))
					}
					res, err := tp.Solve()
					if err != nil {
						t.Fatal(err)
					}
					starts = append(starts, res.Placement)
					for i := 0; i < 5; i++ {
						if p := randomMonotone(rng, tp); p != nil {
							starts = append(starts, p)
						}
					}
					for si, p := range starts {
						for h := 0; h < k-1; h++ {
							q, c, err := tp.RecutHop(p, h)
							if err != nil {
								t.Fatal(err)
							}
							rq, rc, err := tp.refRecutHop(p, h)
							if err != nil {
								t.Fatal(err)
							}
							if !q.Equal(rq) || c != rc {
								t.Errorf("k=%d seed=%d graph %d start %d hop %d dead=%v: re-cut %v at %v, reference %v at %v",
									k, seed, gi, si, h, tp == &dead, q, c, rq, rc)
							}
							recuts++
						}
					}
				}
			}
		}
	}
	t.Logf("%d re-cuts matched the reference", recuts)
}

// TestPlacementInvariants is the property battery: every placement the
// solver emits covers all cells exactly once with in-range tiers, is
// acyclic w.r.t. tier order (monotone along every edge), keeps readers
// grouped, and its reported cost matches both a Cost re-pricing and the
// independent Breakdown accounting — no drift between optimizer-internal
// and reported cost.
func TestPlacementInvariants(t *testing.T) {
	for _, k := range []int{2, 3, 4} {
		for _, seed := range []int64{11, 17, 29} {
			rng := rand.New(rand.NewSource(seed))
			g := tinyDAG(rng, 4+rng.Intn(9))
			tp, err := tinyTiered(g, k)
			if err != nil {
				t.Fatal(err)
			}
			res, err := tp.Solve()
			if err != nil {
				t.Fatal(err)
			}
			p := res.Placement
			if len(p) != len(g.Cells) {
				t.Fatalf("k=%d seed=%d: placement covers %d of %d cells", k, seed, len(p), len(g.Cells))
			}
			if err := tp.CheckPlacement(p); err != nil {
				t.Fatalf("k=%d seed=%d: %v", k, seed, err)
			}
			reprice := tp.Cost(p)
			if math.Abs(res.Cost-reprice) > costTol(reprice) {
				t.Errorf("k=%d seed=%d: reported cost %v, re-priced %v", k, seed, res.Cost, reprice)
			}
			bd := tp.Breakdown(p)
			if math.Abs(bd.WeightedCost-reprice) > costTol(reprice) {
				t.Errorf("k=%d seed=%d: breakdown %v, cost %v", k, seed, bd.WeightedCost, reprice)
			}
			counts := p.Counts(k)
			total := 0
			for _, c := range counts {
				total += c
			}
			if total != len(g.Cells) {
				t.Errorf("k=%d seed=%d: tier counts %v sum to %d, want %d", k, seed, counts, total, len(g.Cells))
			}
		}
	}
}

// TestTwoTierCostMatchesSensorEnergy: with tier weights {1, 0} the
// k-way objective must equal the paper's Problem.SensorEnergy on EVERY
// placement of the 2^n space — the generalized model contains the
// original as its k=2 slice.
func TestTwoTierCostMatchesSensorEnergy(t *testing.T) {
	for _, seed := range []int64{3, 14, 15} {
		rng := rand.New(rand.NewSource(seed))
		g := tinyDAG(rng, 4+rng.Intn(6)) // ≤ 9 cells → ≤ 512 placements
		link := wireless.Model2()
		tp, err := tinyTiered(g, 2)
		if err != nil {
			t.Fatal(err)
		}
		tp.Tiers = []TierSpec{
			{Name: "sensor", ComputeScale: 1, EnergyWeight: 1},
			{Name: "aggregator", ComputeScale: 0.3, EnergyWeight: 0},
		}
		tp.Hops = []Hop{{Link: link, BandwidthScale: 1}}
		tp.SensingEnergy = 2.5e-7
		legacy := &Problem{Graph: g, HW: tp.HW, Link: link, SensingEnergy: tp.SensingEnergy}

		n := len(g.Cells)
		for mask := 0; mask < 1<<n; mask++ {
			tier := make(TierPlacement, n)
			binary := make(Placement, n)
			for i := 0; i < n; i++ {
				if mask&(1<<i) != 0 {
					tier[i] = 1
					binary[i] = Aggregator
				}
			}
			kway := tp.Cost(tier)
			two := legacy.SensorEnergy(binary)
			if math.Abs(kway-two) > costTol(two) {
				t.Fatalf("seed %d mask %b: k-way cost %v, SensorEnergy %v", seed, mask, kway, two)
			}
		}
	}
}

// TestKWayDominatesBiPartition: on synthetic DAGs beyond the oracle's
// reach the k-way solution must beat or tie the best single-hop
// bi-partition.
func TestKWayDominatesBiPartition(t *testing.T) {
	kept := 0
	for seed := int64(1); seed <= 12 && kept < 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g, err := topology.Synthetic(rng, 256)
		if err != nil {
			continue
		}
		tp, err := tinyTiered(g, 3)
		if err != nil {
			t.Fatal(err)
		}
		if oracleProblem(tp).Space() <= enumerable {
			continue // the oracle batteries cover it
		}
		kept++
		res, err := tp.Solve()
		if err != nil {
			t.Fatal(err)
		}
		if err := tp.CheckPlacement(res.Placement); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		biP, biC, biH, err := tp.BestBiPartition()
		if err != nil {
			t.Fatal(err)
		}
		if err := tp.CheckPlacement(biP); err != nil {
			t.Fatalf("seed %d: bi-partition infeasible: %v", seed, err)
		}
		if res.Cost > biC+costTol(biC) {
			t.Errorf("seed %d (%d cells): k-way %v worse than hop-%d bi-partition %v",
				seed, len(g.Cells), res.Cost, biH, biC)
		}
	}
	if kept == 0 {
		t.Skip("no synthetic instance beyond the oracle's reach")
	}
}

// TestSolveDeterministic: identical problems solve to bit-identical
// placements and costs.
func TestSolveDeterministic(t *testing.T) {
	for _, cells := range []int{8, 20} {
		rng := rand.New(rand.NewSource(42))
		g := tinyDAG(rng, cells)
		tp, err := tinyTiered(g, 3)
		if err != nil {
			t.Fatal(err)
		}
		first, err := tp.Solve()
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			rng2 := rand.New(rand.NewSource(42))
			g2 := tinyDAG(rng2, cells)
			tp2, err := tinyTiered(g2, 3)
			if err != nil {
				t.Fatal(err)
			}
			again, err := tp2.Solve()
			if err != nil {
				t.Fatal(err)
			}
			if !first.Placement.Equal(again.Placement) {
				t.Fatalf("cells=%d: run %d placement diverged: %v vs %v", cells, i, first.Placement, again.Placement)
			}
			if first.Cost != again.Cost {
				t.Fatalf("cells=%d: run %d cost diverged: %v vs %v", cells, i, first.Cost, again.Cost)
			}
		}
	}
}

// TestRecutHopNeverRegresses: re-cutting any hop of any solver placement
// must keep cost equal or better, only move cells between the hop's two
// tiers, and preserve feasibility.
func TestRecutHopNeverRegresses(t *testing.T) {
	for _, seed := range []int64{6, 18, 27} {
		rng := rand.New(rand.NewSource(seed))
		g := tinyDAG(rng, 5+rng.Intn(8))
		tp, err := tinyTiered(g, 3)
		if err != nil {
			t.Fatal(err)
		}
		starts := []TierPlacement{
			AllAt(g, 0), AllAt(g, 1), AllAt(g, 2),
		}
		if res, err := tp.Solve(); err == nil {
			starts = append(starts, res.Placement)
		}
		for _, p := range starts {
			before := tp.Cost(p)
			for h := 0; h < len(tp.Hops); h++ {
				q, c, err := tp.RecutHop(p, h)
				if err != nil {
					t.Fatalf("seed %d hop %d: %v", seed, h, err)
				}
				if c > before+costTol(before) {
					t.Errorf("seed %d hop %d: re-cut cost %v > original %v", seed, h, c, before)
				}
				if err := tp.CheckPlacement(q); err != nil {
					t.Errorf("seed %d hop %d: %v", seed, h, err)
				}
				for i := range p {
					if p[i] != q[i] && (p[i] != Tier(h) && p[i] != Tier(h+1)) {
						t.Errorf("seed %d hop %d: cell %d moved from tier %d, outside the hop", seed, h, i, p[i])
					}
					if q[i] != p[i] && q[i] != Tier(h) && q[i] != Tier(h+1) {
						t.Errorf("seed %d hop %d: cell %d landed on tier %d, outside the hop", seed, h, i, q[i])
					}
				}
			}
		}
	}
}

// TestCollapseAndLift: Collapse/FromBinary round-trip the 2-end
// runtime's view of a tier placement, and CapAt degrades feasibly.
func TestCollapseAndLift(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := tinyDAG(rng, 9)
	tp, err := tinyTiered(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := tp.Solve()
	if err != nil {
		t.Fatal(err)
	}
	p := res.Placement
	for boundary := Tier(0); boundary < 2; boundary++ {
		bin := p.Collapse(boundary)
		for i, tier := range p {
			wantSensor := tier <= boundary
			if bin.OnSensor(topology.CellID(i)) != wantSensor {
				t.Fatalf("boundary %d: cell %d collapsed wrong", boundary, i)
			}
		}
	}
	lifted := FromBinary(p.Collapse(1), 3)
	for i := range lifted {
		if lifted[i] != 0 && lifted[i] != 2 {
			t.Fatalf("lift must use extreme tiers, got %d", lifted[i])
		}
	}
	for max := Tier(0); max < 3; max++ {
		capped := p.CapAt(max)
		if err := tp.CheckPlacement(capped); err != nil {
			t.Fatalf("CapAt(%d): %v", max, err)
		}
		if capped.MaxTier() > max {
			t.Fatalf("CapAt(%d) left tier %d", max, capped.MaxTier())
		}
	}
}

// TestNewTieredProblemValidation covers the constructor's error paths
// and defaults.
func TestNewTieredProblemValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := tinyDAG(rng, 5)
	tp, err := tinyTiered(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	if tp.ResultTier != 2 {
		t.Fatalf("defaults: ResultTier=%d", tp.ResultTier)
	}
	tiers, hops := tinyChain(3)
	if _, err := NewTieredProblem(nil, tp.HW, tiers, hops, 0); err == nil {
		t.Error("nil graph accepted")
	}
	if _, err := NewTieredProblem(g, tp.HW, tiers[:1], hops[:0], 0); err == nil {
		t.Error("single tier accepted")
	}
	if _, err := NewTieredProblem(g, tp.HW, tiers, hops[:1], 0); err == nil {
		t.Error("hop/tier mismatch accepted")
	}
	bad := append([]TierSpec(nil), tiers...)
	bad[1].EnergyWeight = -1
	if _, err := NewTieredProblem(g, tp.HW, bad, hops, 0); err == nil {
		t.Error("negative weight accepted")
	}
	// A graph Validate rejects: without its source edges, no cell reads
	// the raw segment and the first cells have no inputs.
	unsourced := *g
	unsourced.Edges = nil
	for _, e := range g.Edges {
		if e.From != topology.SourceID {
			unsourced.Edges = append(unsourced.Edges, e)
		}
	}
	if unsourced.Validate() == nil {
		t.Fatal("a graph without source edges passes Validate")
	}
	if _, err := NewTieredProblem(&unsourced, tp.HW, tiers, hops, 0); err == nil {
		t.Error("NewTieredProblem accepted a graph Validate rejects")
	}
	pr := NewProblem(&unsourced, tp.HW, hops[0].Link, 0, nil)
	if _, err := pr.Tiered(tiers, hops); err == nil {
		t.Error("Problem.Tiered accepted a graph Validate rejects")
	}
	// A hand-built problem over it has no source readers to group;
	// CheckPlacement must not index them.
	hand := &TieredProblem{Graph: &unsourced, HW: tp.HW, Tiers: tiers, Hops: hops, ResultTier: 2}
	if err := hand.CheckPlacement(AllAt(&unsourced, 0)); err != nil {
		t.Errorf("a placement over a graph without source readers: %v", err)
	}
	// CheckPlacement violations.
	if err := tp.CheckPlacement(make(TierPlacement, 2)); err == nil {
		t.Error("short placement accepted")
	}
	p := AllAt(g, 0)
	p[g.Output] = -1
	if err := tp.CheckPlacement(p); err == nil {
		t.Error("negative tier accepted")
	}
	// Non-monotone: output below its producers.
	q := AllAt(g, 2)
	q[g.Output] = 0
	if err := tp.CheckPlacement(q); err == nil {
		t.Error("tier-descending edge accepted")
	}
}

// TestDefaultThreeTierShape pins the canonical chain's structure.
func TestDefaultThreeTierShape(t *testing.T) {
	tiers, hops := DefaultThreeTier(wireless.Model2(), wireless.Model3())
	if len(tiers) != 3 || len(hops) != 2 {
		t.Fatalf("got %d tiers, %d hops", len(tiers), len(hops))
	}
	if tiers[0].EnergyWeight != 1 || tiers[2].EnergyWeight != 0 {
		t.Fatalf("weights: %v", tiers)
	}
	if hops[0].Link.Name != wireless.Model2().Name || hops[1].Link.Name != wireless.Model3().Name {
		t.Fatalf("hops wired wrong: %v", hops)
	}
}

// TestOracleProblemShape: the oracle translation carries every data
// edge and the reader group.
func TestOracleProblemShape(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := tinyDAG(rng, 8)
	tp, err := tinyTiered(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	op := oracleProblem(tp)
	if op.Cells != len(g.Cells) || op.Tiers != 3 {
		t.Fatalf("shape: %d cells %d tiers", op.Cells, op.Tiers)
	}
	dataEdges := 0
	for _, e := range g.Edges {
		if e.From != topology.SourceID {
			dataEdges++
		}
	}
	if len(op.Edges) != dataEdges {
		t.Fatalf("%d oracle edges, want %d", len(op.Edges), dataEdges)
	}
	if readers := g.SourceReaders(); len(readers) > 1 {
		if len(op.Groups) != 1 || len(op.Groups[0]) != len(readers) {
			t.Fatalf("reader group not carried: %v", op.Groups)
		}
	}
	if _, err := (&oracle.Problem{Cells: op.Cells, Tiers: op.Tiers, Edges: op.Edges, Groups: op.Groups}).Enumerate(func([]int) bool { return true }); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkMultiwaySolve and BenchmarkRecutHop run on synthetic seed 1:
// 35 cells, beyond the oracle's reach.
func BenchmarkMultiwaySolve(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g, err := topology.Synthetic(rng, 256)
	if err != nil {
		b.Fatal(err)
	}
	tp, err := tinyTiered(g, 3)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tp.Solve(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRecutHop(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g, err := topology.Synthetic(rng, 256)
	if err != nil {
		b.Fatal(err)
	}
	tp, err := tinyTiered(g, 3)
	if err != nil {
		b.Fatal(err)
	}
	res, err := tp.Solve()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := tp.RecutHop(res.Placement, i%2); err != nil {
			b.Fatal(err)
		}
	}
}
