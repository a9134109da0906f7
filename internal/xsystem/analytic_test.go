package xsystem

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"xpro/internal/aggregator"
	"xpro/internal/celllib"
	"xpro/internal/partition"
	"xpro/internal/sensornode"
	"xpro/internal/wireless"
)

// TestWalkMatchesAnalyticBooks checks the event walk over infallible
// hops against the analytic cost model it executes: a 2-end walk spends
// exactly the placement's EnergyPerEvent sensor total and DelayPerEvent
// time, and a k-tier walk books the sensor energy, per-hop air time and
// radio energy of TieredProblem.Breakdown. Only the summation order
// differs, so the two agree to rounding.
func TestWalkMatchesAnalyticBooks(t *testing.T) {
	if testing.Short() {
		t.Skip("trains the six cases")
	}
	const tol = 1e-12
	worst, events := 0.0, 0
	check := func(what string, got, want float64) {
		t.Helper()
		d := math.Abs(got - want)
		if want != 0 {
			d /= math.Abs(want)
		}
		worst = max(worst, d)
		if d > tol {
			t.Errorf("%s: walk %.17g, books %.17g (relative error %.3g)", what, got, want, d)
		}
	}
	for ci, cf := range sixCases(t) {
		g := cf.graph
		rng := rand.New(rand.NewSource(int64(2000 + ci)))
		segs := cf.test.Segs[:min(4, len(cf.test.Segs))]
		link := wireless.Models()[ci%3]
		names, pls := twoEndPlacements(t, cf, rng)
		var systems []*System
		for pi, p := range pls {
			sys, err := New(g, cf.ens, celllib.P90, link, aggregator.CortexA8(), p, sensornode.DefaultSampleRateHz)
			if err != nil {
				t.Fatal(err)
			}
			systems = append(systems, sys)
			key := cf.sym + "/" + names[pi]
			for _, seg := range segs {
				o, err := sys.ClassifyOver(seg, nil)
				if err != nil {
					t.Fatalf("%s: %v", key, err)
				}
				check(key+" sensor energy", o.SensorEnergy, sys.EnergyPerEvent().SensorTotal())
				check(key+" spent seconds", o.SpentSeconds, sys.DelayPerEvent().Total())
			}
		}

		for k := 2; k <= 4; k++ {
			tiers, hops := partition.DefaultChain(k, link, wireless.Model3())
			ts, err := NewTiered(systems[2], tiers, hops)
			if err != nil {
				t.Fatal(err)
			}
			tpls := []partition.TierPlacement{ts.TierPlacement, partition.AllAt(g, 0), partition.AllAt(g, partition.Tier(k-1))}
			for i := 0; i < 4; i++ {
				tpls = append(tpls, randomTierPlacement(rng, g, k))
			}
			for pi, p := range tpls {
				s, err := ts.WithTierPlacement(p)
				if err != nil {
					t.Fatal(err)
				}
				key := fmt.Sprintf("%s/k=%d/placement-%d", cf.sym, k, pi)
				bd := s.Tiered.Breakdown(s.TierPlacement)
				radio := 0.0
				for tier := range bd.Tx {
					radio += bd.Tx[tier] + bd.Rx[tier]
				}
				for _, seg := range segs {
					o, err := s.ClassifyOver(seg, nil)
					if err != nil {
						t.Fatalf("%s: %v", key, err)
					}
					events++
					check(key+" sensor energy", o.SensorEnergy, bd.Sensing+bd.Compute[0]+bd.Tx[0]+bd.Rx[0])
					hopEnergy := 0.0
					for h := range o.HopAirSeconds {
						check(fmt.Sprintf("%s hop %d air time", key, h), o.HopAirSeconds[h], bd.HopAirSeconds[h])
						hopEnergy += o.HopEnergyJ[h]
					}
					check(key+" radio energy", hopEnergy, radio)
				}
			}
		}
	}
	t.Logf("%d tiered events; worst relative error %.3g", events, worst)
}
