package adaptive

import (
	"math/rand"
	"testing"

	"xpro/internal/celllib"
	"xpro/internal/partition"
	"xpro/internal/sensornode"
	"xpro/internal/topology"
	"xpro/internal/wireless"
)

// threeTierFixture builds a solved synthetic three-tier problem.
func threeTierFixture(t testing.TB, seed int64) (*partition.TieredProblem, partition.TierPlacement) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g, err := topology.Synthetic(rng, 256)
	if err != nil {
		t.Fatal(err)
	}
	hw := sensornode.Characterize(g, celllib.P90)
	tiers, hops := partition.DefaultThreeTier(wireless.Model2(), wireless.Model3())
	tp, err := partition.NewTieredProblem(g, hw, tiers, hops, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	res, err := tp.Solve()
	if err != nil {
		t.Fatal(err)
	}
	return tp, res.Placement
}

// TestHopRecutCleanChannelKeepsOptimum: with a clean estimate the
// derated problem IS the original, so re-cutting the optimum must not
// change its cost.
func TestHopRecutCleanChannelKeepsOptimum(t *testing.T) {
	tp, p := threeTierFixture(t, 11)
	base := tp.Cost(p)
	for hop := range tp.Hops {
		q, _, err := HopRecut(tp, p, hop, Estimate{}, 64)
		if err != nil {
			t.Fatal(err)
		}
		if c := tp.Cost(q); c > base+1e-12+1e-9*base {
			t.Fatalf("hop %d: clean re-cut regressed %v -> %v", hop, base, c)
		}
	}
}

// TestHopRecutUnderDriftNeverRegressesDerated: under a lossy estimate
// the re-cut placement must price no worse than the incumbent under
// the DERATED model — the exact guarantee RecutHop gives.
func TestHopRecutUnderDriftNeverRegressesDerated(t *testing.T) {
	tp, p := threeTierFixture(t, 23)
	for hop := range tp.Hops {
		for _, est := range []Estimate{
			{Loss: 0.3, Samples: 50},
			{Loss: 0.9, Samples: 50},
			{Loss: 0.5, Outage: 0.5, Samples: 50},
		} {
			q, cost, err := HopRecut(tp, p, hop, est, 64)
			if err != nil {
				t.Fatal(err)
			}
			if err := tp.CheckPlacement(q); err != nil {
				t.Fatalf("hop %d est %+v: infeasible re-cut: %v", hop, est, err)
			}
			derated := deratedProblem(tp, hop, est, 64)
			if inc := derated.Cost(p); cost > inc+1e-12+1e-9*inc {
				t.Fatalf("hop %d est %+v: re-cut %v worse than incumbent %v under drift",
					hop, est, cost, inc)
			}
			// Only cells adjacent to the re-cut hop may have moved.
			for i := range q {
				if q[i] != p[i] && p[i] != partition.Tier(hop) && p[i] != partition.Tier(hop+1) {
					t.Fatalf("hop %d: cell %d moved from distant tier %d", hop, i, p[i])
				}
			}
		}
	}
}

// TestHopRecutFullOutageShedsTraffic: Outage ≥ 1 marks the hop dead,
// and the re-cut must pull every sheddable bit off it.
func TestHopRecutFullOutageShedsTraffic(t *testing.T) {
	tp, p := threeTierFixture(t, 31)
	q, _, err := HopRecut(tp, p, 1, Estimate{Outage: 1, Samples: 10}, 64)
	if err != nil {
		t.Fatal(err)
	}
	bd := tp.Breakdown(q)
	if bd.HopDataBits[1] > wireless.ValueBits {
		t.Fatalf("dead uplink still carries %d bits", bd.HopDataBits[1])
	}
}

// TestHopRecutValidation covers the error paths.
func TestHopRecutValidation(t *testing.T) {
	tp, p := threeTierFixture(t, 3)
	if _, _, err := HopRecut(nil, p, 0, Estimate{}, 64); err == nil {
		t.Error("nil problem accepted")
	}
	if _, _, err := HopRecut(tp, p, -1, Estimate{}, 64); err == nil {
		t.Error("negative hop accepted")
	}
	if _, _, err := HopRecut(tp, p, len(tp.Hops), Estimate{}, 64); err == nil {
		t.Error("out-of-range hop accepted")
	}
	if _, _, err := HopRecut(tp, p, 0, Estimate{}, 0.5); err == nil {
		t.Error("sub-unit inflation cap accepted")
	}
}
