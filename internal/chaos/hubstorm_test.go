package chaos

import (
	"fmt"
	"reflect"
	"testing"

	"xpro/internal/adaptive"
	"xpro/internal/partition"
	"xpro/internal/xsystem"
)

// stormTieredSystem lifts the fixture onto the three-tier chain and
// moves the home placement to the all-cloud extreme, so every event
// genuinely crosses both hops and a dark hub has traffic to kill.
func stormTieredSystem(t testing.TB, f *fixture) *xsystem.TieredSystem {
	t.Helper()
	ts := tieredSystem(t, f)
	home := partition.AllAt(ts.Graph, partition.Tier(ts.Tiered.K()-1))
	up, err := ts.WithTierPlacement(home)
	if err != nil {
		t.Fatal(err)
	}
	return up
}

func TestHubStormValidation(t *testing.T) {
	f := getFixture(t)
	ts := stormTieredSystem(t, f)
	if _, err := HubStormSoak(nil, f.test.Segs, HubStormConfig{}); err == nil {
		t.Error("nil system should error")
	}
	if _, err := HubStormSoak(ts, nil, HubStormConfig{}); err == nil {
		t.Error("empty segments should error")
	}
	if _, err := adaptive.NewTierRuntime(nil, adaptive.TierConfig{}); err == nil {
		t.Error("nil runtime system should error")
	}
}

// TestHubStormDominance is the battery's acceptance property: under
// identical seeded hub storms the tier-collapse ladder completes at
// least 99% of events within deadline while the static k-way walk
// hard-fails every storm event.
func TestHubStormDominance(t *testing.T) {
	f := getFixture(t)
	ts := stormTieredSystem(t, f)
	res, err := HubStormSoak(ts, f.test.Segs, HubStormConfig{Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	if res.Static.StormEvents == 0 {
		t.Fatal("storm schedule never darkened the hub — the battery tested nothing")
	}
	if res.Static.NoResult == 0 {
		t.Errorf("static variant never hard-failed across %d storm events", res.Static.StormEvents)
	}
	if got := res.Tiered.InDeadlineFrac(); got < 0.99 {
		t.Errorf("tiered in-deadline fraction %.4f < 0.99 (violations=%d of %d)",
			got, res.Tiered.Violations, res.Tiered.Events)
	}
	if !res.TieredDominates() {
		t.Errorf("tiered does not dominate: static in-deadline %.4f (noresult %d), tiered %.4f",
			res.Static.InDeadlineFrac(), res.Static.NoResult, res.Tiered.InDeadlineFrac())
	}
	if res.Tiered.Collapses == 0 || res.Tiered.Recoveries == 0 {
		t.Errorf("ladder never cycled: collapses=%d recoveries=%d",
			res.Tiered.Collapses, res.Tiered.Recoveries)
	}
	if res.Tiered.NoResult > 0 {
		t.Errorf("tiered variant produced %d no-result events; the ladder must always answer", res.Tiered.NoResult)
	}
}

// The battery replays bit-identically: same seed, same per-event log,
// across repeated runs (and across -cpu values, which the CI job
// exercises with -cpu 1,4).
func TestHubStormReplayDeterminism(t *testing.T) {
	f := getFixture(t)
	ts := stormTieredSystem(t, f)
	cfg := HubStormConfig{Seed: 29, Events: 200}
	a, err := HubStormSoak(ts, f.test.Segs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := HubStormSoak(ts, f.test.Segs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, pair := range [][2]*HubStormVariant{
		{&a.Static, &b.Static}, {&a.Ladder, &b.Ladder}, {&a.Tiered, &b.Tiered},
	} {
		if !reflect.DeepEqual(pair[0].Log, pair[1].Log) {
			for i := range pair[0].Log {
				if pair[0].Log[i] != pair[1].Log[i] {
					t.Fatalf("%s replay diverged at event %d:\n a: %s\n b: %s",
						pair[0].Name, i, pair[0].Log[i], pair[1].Log[i])
				}
			}
			t.Fatalf("%s replay diverged in length", pair[0].Name)
		}
	}
}

// A mid-storm crash–recover cycle reproduces the golden run exactly:
// the runtime is snapshotted inside the first storm, a fresh runtime
// restores the snapshot, and every subsequent event — and the final
// snapshot — is bit-identical to the uninterrupted run.
func TestHubStormCrashRecover(t *testing.T) {
	f := getFixture(t)
	ts := stormTieredSystem(t, f)
	cfg := HubStormConfig{Seed: 31, Events: 240}
	const total = 240
	segs := f.test.Segs
	serve := func(rt *adaptive.TierRuntime, i int) string {
		t.Helper()
		ev, err := rt.Serve(segs[i%len(segs)])
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%+v", ev)
	}

	golden, storm, err := newHubStormRuntime(ts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]string, total)
	split := -1
	for i := 0; i < total; i++ {
		stormNow := storm.At(golden.Options().Clock.Now()).HubDown
		rows[i] = serve(golden, i)
		if split < 0 && stormNow && i > 0 {
			split = i + 1 // crash just after the storm's first hit
		}
	}
	if split < 0 || split >= total {
		t.Fatalf("no storm inside the battery (split=%d)", split)
	}

	a, _, err := newHubStormRuntime(ts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < split; i++ {
		if row := serve(a, i); row != rows[i] {
			t.Fatalf("pre-crash event %d diverged:\n got %s\nwant %s", i, row, rows[i])
		}
	}
	ckpt := a.Snapshot()

	b, _, err := newHubStormRuntime(ts, cfg) // the rebooted node
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Restore(ckpt); err != nil {
		t.Fatal(err)
	}
	for i := split; i < total; i++ {
		if row := serve(b, i); row != rows[i] {
			t.Fatalf("post-recover event %d diverged:\n got %s\nwant %s", i, row, rows[i])
		}
	}
	if !reflect.DeepEqual(b.Snapshot(), golden.Snapshot()) {
		t.Fatalf("final snapshots diverged:\n got %+v\nwant %+v", b.Snapshot(), golden.Snapshot())
	}

	// A mismatched snapshot is rejected, not half-applied.
	if err := b.Restore(adaptive.TierState{}); err == nil {
		t.Fatal("hop-less snapshot should be rejected")
	}
}

// BenchmarkTieredWalk prices one event through the armed tier-collapse
// runtime — per-hop transports, ladder bookkeeping and all. Its
// trajectory lands in BENCH_tiered.json via the CI recorder.
func BenchmarkTieredWalk(b *testing.B) {
	f := getFixture(b)
	ts := stormTieredSystem(b, f)
	r, _, err := newHubStormRuntime(ts, HubStormConfig{Seed: 17})
	if err != nil {
		b.Fatal(err)
	}
	segs := f.test.Segs
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Serve(segs[i%len(segs)]); err != nil {
			b.Fatal(err)
		}
	}
}
