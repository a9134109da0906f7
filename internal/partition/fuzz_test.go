package partition

import (
	"math"
	"math/rand"
	"testing"
)

// FuzzPlacement feeds random small DAGs and tier counts into the k-way
// optimizer and asserts the full invariant set: feasibility, no cost
// drift between solver, re-pricing and breakdown, determinism across
// repeated solves, no loss to the best single-hop bi-partition, and —
// on enumerable instances — the exhaustive oracle's placement and cost.
func FuzzPlacement(f *testing.F) {
	f.Add(int64(1), uint8(6), uint8(1))
	f.Add(int64(42), uint8(10), uint8(0))
	f.Add(int64(7), uint8(12), uint8(2))
	f.Add(int64(99), uint8(3), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, cells, tiers uint8) {
		n := 3 + int(cells)%10 // 3..12 cells
		k := 2 + int(tiers)%3  // 2..4 tiers
		rng := rand.New(rand.NewSource(seed))
		g := tinyDAG(rng, n)
		if err := g.Validate(); err != nil {
			t.Fatalf("tinyDAG built an invalid graph: %v", err)
		}
		tp, err := tinyTiered(g, k)
		if err != nil {
			t.Fatal(err)
		}
		res, err := tp.Solve()
		if err != nil {
			t.Fatal(err)
		}
		if err := tp.CheckPlacement(res.Placement); err != nil {
			t.Fatalf("solver emitted infeasible placement: %v", err)
		}
		if reprice := tp.Cost(res.Placement); math.Abs(res.Cost-reprice) > costTol(reprice) {
			t.Fatalf("cost drift: reported %v, re-priced %v", res.Cost, reprice)
		}
		if bd := tp.Breakdown(res.Placement); math.Abs(bd.WeightedCost-res.Cost) > costTol(res.Cost) {
			t.Fatalf("breakdown drift: %v vs %v", bd.WeightedCost, res.Cost)
		}
		again, err := tp.Solve()
		if err != nil {
			t.Fatal(err)
		}
		if !again.Placement.Equal(res.Placement) || again.Cost != res.Cost {
			t.Fatalf("solve not deterministic: %v/%v then %v/%v",
				res.Placement, res.Cost, again.Placement, again.Cost)
		}
		// Oracle agreement on every enumerable input, and never worse
		// than the best single-hop bi-partition.
		opt, optC, ok := oracleOptimum(t, tp)
		if ok && (!res.Placement.Equal(opt) || math.Abs(res.Cost-optC) > costTol(optC)) {
			t.Fatalf("solver %v at %v, oracle %v at %v", res.Placement, res.Cost, opt, optC)
		}
		_, biC, _, err := tp.BestBiPartition()
		if err != nil {
			t.Fatal(err)
		}
		if res.Cost > biC+costTol(biC) {
			t.Fatalf("solver %v worse than best bi-partition %v", res.Cost, biC)
		}
	})
}
