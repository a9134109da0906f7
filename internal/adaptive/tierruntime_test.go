package adaptive

import (
	"math/rand"
	"testing"

	"xpro/internal/aggregator"
	"xpro/internal/celllib"
	"xpro/internal/faults"
	"xpro/internal/partition"
	"xpro/internal/sensornode"
	"xpro/internal/topology"
	"xpro/internal/wireless"
	"xpro/internal/xsystem"
)

// untrainedChain lifts a synthetic graph onto a k-tier chain without a
// classifier: enough to arm a runtime and cut its rungs, not to serve.
func untrainedChain(t *testing.T, seed int64, k int) *xsystem.TieredSystem {
	t.Helper()
	g, err := topology.Synthetic(rand.New(rand.NewSource(seed)), 96)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := xsystem.New(g, nil, celllib.P90, wireless.Model2(), aggregator.CortexA8(),
		partition.InSensor(g), sensornode.DefaultSampleRateHz)
	if err != nil {
		t.Fatal(err)
	}
	tiers, hops := partition.DefaultChain(k, sys.Link, wireless.Model3())
	ts, err := xsystem.NewTiered(sys, tiers, hops)
	if err != nil {
		t.Fatal(err)
	}
	return ts
}

func TestTierRuntimeValidation(t *testing.T) {
	ts := untrainedChain(t, 1, 3)
	pol := faults.DefaultPolicy()
	if _, err := NewTierRuntime(nil, TierConfig{Policy: pol}); err == nil {
		t.Error("nil home accepted")
	}
	if _, err := NewTierRuntime(ts, TierConfig{Policy: pol, HopPlans: make([]*faults.Plan, 3)}); err == nil {
		t.Error("3 hop plans on a 2-hop chain accepted")
	}
	bad := pol
	bad.Deadline = -1
	if _, err := NewTierRuntime(ts, TierConfig{Policy: bad}); err == nil {
		t.Error("negative deadline accepted")
	}
	rt, err := NewTierRuntime(ts, TierConfig{Policy: pol})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Rehome(untrainedChain(t, 1, 2)); err == nil {
		t.Error("1-hop home accepted by a 2-hop runtime")
	}
}

// A re-home while collapsed keeps the ladder's cap and cuts every rung
// from the new home: the steady rung stays below the dead hop, and the
// full rung is the new home itself.
func TestTierRuntimeRehomeKeepsCap(t *testing.T) {
	ts := untrainedChain(t, 2, 3)
	rt, err := NewTierRuntime(ts, TierConfig{Policy: faults.DefaultPolicy()})
	if err != nil {
		t.Fatal(err)
	}
	st := rt.Snapshot()
	st.Steady = 0
	st.Hops[0].Health.Dead = true
	if err := rt.Restore(st); err != nil {
		t.Fatal(err)
	}
	cloud, err := ts.WithTierPlacement(partition.AllAt(ts.Graph, 2))
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Rehome(cloud); err != nil {
		t.Fatal(err)
	}
	if rt.Steady() != 0 {
		t.Fatalf("re-home moved the steady cap to %d", rt.Steady())
	}
	for c := partition.Tier(0); c <= rt.FullCap(); c++ {
		want := cloud.TierPlacement.CapAt(c)
		if got := rt.Rung(c).TierPlacement; !got.Equal(want) {
			t.Fatalf("rung %d serves %v, want the new home capped: %v", c, got, want)
		}
	}
}
