package chaos

import (
	"fmt"
	"math/rand"
	"testing"

	"xpro/internal/adaptive"
	"xpro/internal/partition"
	"xpro/internal/wireless"
	"xpro/internal/xsystem"
)

// tieredSystem lifts the chaos fixture onto the canonical three-tier
// chain (body link = the system's own radio, uplink = Model3).
func tieredSystem(t testing.TB, f *fixture) *xsystem.TieredSystem {
	t.Helper()
	s := crossSystem(t, f, wireless.Model2())
	tiers, hops := partition.DefaultChain(3, s.Link, wireless.Model3())
	ts, err := xsystem.NewTiered(s, tiers, hops)
	if err != nil {
		t.Fatal(err)
	}
	return ts
}

// recutHops re-cuts every hop of p in turn under its own estimate,
// from the body hop upward, and reports the hops that moved.
func recutHops(tp *partition.TieredProblem, p partition.TierPlacement, ests []adaptive.Estimate) (partition.TierPlacement, []int, error) {
	cur := p.Clone()
	var moved []int
	for h := range tp.Hops {
		next, _, err := adaptive.HopRecut(tp, cur, h, ests[h], 64)
		if err != nil {
			return nil, nil, err
		}
		if !next.Equal(cur) {
			moved = append(moved, h)
		}
		cur = next
	}
	return cur, moved, nil
}

// hopStorm replays a seeded per-hop channel-drift storm against a
// tiered system, re-cutting every hop each step through the adaptive
// controller, and returns the decision log: one line per step with the
// drawn estimates, the hops that moved, the placement and its cost.
// The log is the battery's determinism witness — same seed, same log,
// bit for bit.
func hopStorm(t testing.TB, ts *xsystem.TieredSystem, seed int64, steps int) []string {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	cur := ts.TierPlacement.Clone()
	log := make([]string, 0, steps)
	for step := 0; step < steps; step++ {
		ests := make([]adaptive.Estimate, len(ts.Tiered.Hops))
		for h := range ests {
			switch rng.Intn(4) {
			case 0: // clear air
			case 1:
				ests[h] = adaptive.Estimate{Loss: 0.3 + 0.6*rng.Float64(), Samples: 32}
			case 2:
				ests[h] = adaptive.Estimate{Loss: 0.5, Outage: rng.Float64(), Samples: 32}
			case 3: // hard outage
				ests[h] = adaptive.Estimate{Outage: 1, Samples: 32}
			}
		}
		next, moved, err := recutHops(ts.Tiered, cur, ests)
		if err != nil {
			t.Fatal(err)
		}
		if err := ts.Tiered.CheckPlacement(next); err != nil {
			t.Fatalf("step %d: storm re-cut infeasible: %v", step, err)
		}
		log = append(log, fmt.Sprintf("step=%d ests=%+v moved=%v placement=%v cost=%.17g",
			step, ests, moved, next, ts.Tiered.Cost(next)))
		cur = next
	}
	return log
}

// TestHopStormReplayDeterminism: the k-way storm's full decision and
// placement log replays bit-identically under the same seed — the
// multiway analogue of TestReplayDeterminism.
func TestHopStormReplayDeterminism(t *testing.T) {
	f := getFixture(t)
	ts := tieredSystem(t, f)
	a := hopStorm(t, ts, 99, 40)
	b := hopStorm(t, ts, 99, 40)
	if len(a) != len(b) {
		t.Fatalf("log lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("step %d diverged:\n  %s\n  %s", i, a[i], b[i])
		}
	}
	// Different seeds must be allowed to differ (the storm is real).
	c := hopStorm(t, ts, 100, 40)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Log("seeds 99 and 100 produced identical storms (possible but suspicious)")
	}
}

// TestHopStormKeepsClassifying: after every storm step the collapsed
// runtime still classifies — re-cuts never wedge the engine.
func TestHopStormKeepsClassifying(t *testing.T) {
	f := getFixture(t)
	ts := tieredSystem(t, f)
	rng := rand.New(rand.NewSource(5))
	cur := ts
	for step := 0; step < 12; step++ {
		ests := make([]adaptive.Estimate, len(cur.Tiered.Hops))
		ests[rng.Intn(len(ests))] = adaptive.Estimate{Loss: rng.Float64(), Outage: rng.Float64(), Samples: 16}
		next, _, err := recutHops(cur.Tiered, cur.TierPlacement, ests)
		if err != nil {
			t.Fatal(err)
		}
		cur, err = cur.WithTierPlacement(next)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cur.Classify(f.test.Segs[step%len(f.test.Segs)]); err != nil {
			t.Fatalf("step %d: classify failed after re-cut: %v", step, err)
		}
	}
}

// TestHopStormDegradeLadder: a storm that kills the uplink must leave
// the system able to degrade to the hub and then the sensor, and to
// climb back when the air clears — the k-way degradation ladder.
func TestHopStormDegradeLadder(t *testing.T) {
	f := getFixture(t)
	ts := tieredSystem(t, f)
	// Uplink dies: cap at the hub.
	hub, err := ts.WithTierPlacement(ts.TierPlacement.CapAt(1))
	if err != nil {
		t.Fatal(err)
	}
	if hub.TierPlacement.MaxTier() > 1 {
		t.Fatalf("degrade(1) left tier %d", hub.TierPlacement.MaxTier())
	}
	// Body hop dies too: everything onto the sensor.
	solo, err := hub.WithTierPlacement(hub.TierPlacement.CapAt(0))
	if err != nil {
		t.Fatal(err)
	}
	if solo.TierPlacement.MaxTier() != 0 {
		t.Fatalf("degrade(0) left tier %d", solo.TierPlacement.MaxTier())
	}
	if _, err := solo.Classify(f.test.Segs[0]); err != nil {
		t.Fatal(err)
	}
	// Air clears: a full re-solve recovers the original optimum.
	back, err := solo.WithTierPlacement(ts.TierPlacement)
	if err != nil {
		t.Fatal(err)
	}
	if !back.TierPlacement.Equal(ts.TierPlacement) {
		t.Fatal("recovery lost the original placement")
	}
	base := ts.Tiered.Cost(ts.TierPlacement)
	for _, deg := range []*xsystem.TieredSystem{hub, solo} {
		if c := deg.Tiered.Cost(deg.TierPlacement); c < base-1e-12-1e-9*base {
			t.Fatalf("degraded placement %v cheaper than the optimum %v", c, base)
		}
	}
}
