package xsystem

import (
	"math"
	"testing"

	"xpro/internal/partition"
	"xpro/internal/wireless"
)

func newTieredSystem(t testing.TB) *TieredSystem {
	t.Helper()
	f := getFixture(t)
	return threeTier(t, newSystem(t, f, partition.InSensor(f.graph)))
}

// threeTier lifts s onto the canonical sensor → hub → cloud chain: its
// own link as the body hop, Model 3 above it.
func threeTier(t testing.TB, s *System) *TieredSystem {
	t.Helper()
	tiers, hops := partition.DefaultChain(3, s.Link, wireless.Model3())
	ts, err := NewTiered(s, tiers, hops)
	if err != nil {
		t.Fatal(err)
	}
	return ts
}

// TestThreeTierFeasibleAndPriced: the solved three-tier placement is
// feasible, its runtime collapse matches tier 0, and the report's
// weighted cost equals an independent re-pricing.
func TestThreeTierFeasibleAndPriced(t *testing.T) {
	ts := newTieredSystem(t)
	if err := ts.Tiered.CheckPlacement(ts.TierPlacement); err != nil {
		t.Fatal(err)
	}
	for i, tier := range ts.TierPlacement {
		onSensor := ts.Placement[i] == partition.Sensor
		if (tier == 0) != onSensor {
			t.Fatalf("cell %d: tier %d but runtime end %v", i, tier, ts.Placement[i])
		}
	}
	rep := ts.TierReport()
	if len(rep.Tiers) != 3 || len(rep.HopDataBits) != 2 {
		t.Fatalf("report shape: %d tiers, %d hops", len(rep.Tiers), len(rep.HopDataBits))
	}
	if got, want := rep.WeightedCost, ts.Tiered.Cost(ts.TierPlacement); math.Abs(got-want) > 1e-12+1e-9*want {
		t.Fatalf("report cost %v, re-priced %v", got, want)
	}
	total := 0
	for _, te := range rep.Tiers {
		total += te.Cells
	}
	if total != len(ts.Graph.Cells) {
		t.Fatalf("report covers %d of %d cells", total, len(ts.Graph.Cells))
	}
	// The three-tier optimum can never cost more than the best 2-end
	// collapse of itself (it could have chosen that placement).
	if bi, biC, _, err := ts.Tiered.BestBiPartition(); err != nil || ts.Tiered.Cost(ts.TierPlacement) > biC+1e-12+1e-9*biC {
		t.Fatalf("three-tier %v worse than bi-partition %v (%v, %v)", ts.Tiered.Cost(ts.TierPlacement), biC, bi, err)
	}
}

// TestTieredClassifyAgrees: collapsing the tier placement must not
// change what the engine computes — classification agrees with the
// all-sensor engine on the test set.
func TestTieredClassifyAgrees(t *testing.T) {
	f := getFixture(t)
	ts := newTieredSystem(t)
	ref := newSystem(t, f, partition.InSensor(f.graph))
	n := len(f.test.Segs)
	if n > 40 {
		n = 40
	}
	for i := 0; i < n; i++ {
		got, err := ts.Classify(f.test.Segs[i])
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.Classify(f.test.Segs[i])
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("segment %d: tiered engine says %d, reference %d", i, got, want)
		}
	}
}

// TestTieredHotSwapAndRecut: WithTierPlacement installs a new k-way
// placement atomically-by-construction (a sibling system), and RecutHop
// never regresses the objective.
func TestTieredHotSwapAndRecut(t *testing.T) {
	ts := newTieredSystem(t)
	base := ts.Tiered.Cost(ts.TierPlacement)
	for hop := 0; hop < 2; hop++ {
		next, moved, err := ts.RecutHop(hop)
		if err != nil {
			t.Fatal(err)
		}
		if c := next.Tiered.Cost(next.TierPlacement); c > base+1e-12+1e-9*base {
			t.Fatalf("hop %d re-cut regressed: %v > %v", hop, c, base)
		}
		if moved == next.TierPlacement.Equal(ts.TierPlacement) {
			t.Fatalf("hop %d: moved=%v but placements equal=%v", hop, moved, next.TierPlacement.Equal(ts.TierPlacement))
		}
	}
	// Hot-swap to the all-cloud corner and back.
	up, err := ts.WithTierPlacement(partition.AllAt(ts.Graph, 2))
	if err != nil {
		t.Fatal(err)
	}
	if got := up.TierPlacement.Counts(3); got[2] != len(ts.Graph.Cells) {
		t.Fatalf("all-cloud swap left counts %v", got)
	}
	back, err := up.WithTierPlacement(ts.TierPlacement)
	if err != nil {
		t.Fatal(err)
	}
	if !back.TierPlacement.Equal(ts.TierPlacement) {
		t.Fatal("round-trip swap lost the placement")
	}
}

// TestTieredDegrade: capping at tier 0 forces everything onto the
// sensor; the degraded system stays feasible and classifies.
func TestTieredDegrade(t *testing.T) {
	f := getFixture(t)
	ts := newTieredSystem(t)
	deg, err := ts.WithTierPlacement(ts.TierPlacement.CapAt(0))
	if err != nil {
		t.Fatal(err)
	}
	if deg.TierPlacement.MaxTier() != 0 {
		t.Fatalf("degrade left tier %d", deg.TierPlacement.MaxTier())
	}
	if _, err := deg.Classify(f.test.Segs[0]); err != nil {
		t.Fatal(err)
	}
	// Degrading to tier 0 kills all hop traffic.
	bd := deg.Tiered.Breakdown(deg.TierPlacement)
	for h, bits := range bd.HopDataBits {
		if h == 0 && bits == int64(wireless.ValueBits) {
			continue // the result still climbs to the cloud's result tier
		}
		if bits != 0 && bits != int64(wireless.ValueBits) {
			t.Fatalf("hop %d still carries %d bits after full degrade", h, bits)
		}
	}
}

// TestNewTieredValidation covers the lift's error paths.
func TestNewTieredValidation(t *testing.T) {
	f := getFixture(t)
	s := newSystem(t, f, partition.InSensor(f.graph))
	if _, err := NewTiered(nil, nil, nil); err == nil {
		t.Error("nil system accepted")
	}
	tiers, hops := partition.DefaultChain(3, s.Link, wireless.Model3())
	if _, err := NewTiered(s, tiers[:1], hops[:0]); err == nil {
		t.Error("single-tier chain accepted")
	}
	ts, err := NewTiered(s, tiers, hops)
	if err != nil {
		t.Fatal(err)
	}
	bad := partition.AllAt(f.graph, 0)
	bad[f.graph.Output] = -1
	if _, err := ts.WithTierPlacement(bad); err == nil {
		t.Error("invalid tier placement accepted")
	}
}
