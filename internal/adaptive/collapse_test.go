package adaptive

import (
	"fmt"
	"testing"

	"xpro/internal/partition"
)

func TestCollapseLadderHysteresis(t *testing.T) {
	l, err := NewCollapseLadder(2, CollapseConfig{FailThreshold: 3})
	if err != nil {
		t.Fatal(err)
	}
	if l.Cap() != 2 {
		t.Fatalf("fresh ladder caps at %d, want 2 (full chain)", l.Cap())
	}
	// Two failures with a success between never collapse: hysteresis.
	l.Observe(1, true, 0)
	l.Observe(1, true, 0.1)
	l.Observe(1, false, 0.2)
	l.Observe(1, true, 0.3)
	l.Observe(1, true, 0.4)
	if l.Health(1).Dead {
		t.Fatal("interleaved successes should reset the failure streak")
	}
	l.Observe(1, true, 0.5)
	if !l.Health(1).Dead {
		t.Fatal("third consecutive failure should collapse the hop")
	}
	if l.Cap() != 1 {
		t.Fatalf("hop 1 dead: cap %d, want 1", l.Cap())
	}
	collapses, _, _ := l.Counters()
	if collapses != 1 {
		t.Fatalf("collapses = %d, want 1", collapses)
	}
	// Lower hop dying caps lower still.
	for i := 0; i < 3; i++ {
		l.Observe(0, true, 1)
	}
	if l.Cap() != 0 {
		t.Fatalf("hop 0 dead: cap %d, want 0 (sensor-local)", l.Cap())
	}
}

func TestCollapseLadderProbeScheduleAndRecovery(t *testing.T) {
	cfg := CollapseConfig{FailThreshold: 1, ProbeAfterSeconds: 2, ProbeBackoffFactor: 2,
		MaxProbeSeconds: 10, RecoverySuccesses: 2, ProbationEvents: 3}
	l, err := NewCollapseLadder(1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	l.Observe(0, true, 0) // collapses immediately (threshold 1)
	if cap, probing := l.EventCap(1); cap != 0 || probing {
		t.Fatalf("before the probe timer: cap %d probing %v", cap, probing)
	}
	if cap, probing := l.EventCap(2); cap != 1 || !probing {
		t.Fatalf("probe due: cap %d probing %v, want full chain probe", cap, probing)
	}
	// Failed probe doubles the interval: next at 2+4=6.
	l.Observe(0, true, 2)
	if cap, probing := l.EventCap(5); cap != 0 || probing {
		t.Fatalf("backoff not honored: cap %d probing %v at t=5", cap, probing)
	}
	if _, probing := l.EventCap(6); !probing {
		t.Fatal("second probe should be due at t=6")
	}
	// Two clean probes revive the hop.
	l.Observe(0, false, 6)
	if !l.Health(0).Dead {
		t.Fatal("one clean probe revived the hop (want 2)")
	}
	l.Observe(0, false, 6.5)
	if l.Health(0).Dead {
		t.Fatal("two clean probes should revive the hop")
	}
	_, recoveries, _ := l.Counters()
	if recoveries != 1 {
		t.Fatalf("recoveries = %d, want 1", recoveries)
	}
	// A failure inside probation rolls straight back down.
	l.Observe(0, false, 7)
	l.Observe(0, true, 7.5)
	if !l.Health(0).Dead {
		t.Fatal("probation failure should re-collapse immediately")
	}
	_, _, rollbacks := l.Counters()
	if rollbacks != 1 {
		t.Fatalf("rollbacks = %d, want 1", rollbacks)
	}
	// Probe interval caps at MaxProbeSeconds.
	for i := 0; i < 6; i++ {
		h := l.Health(0)
		l.Observe(0, true, h.NextProbeAt)
	}
	if h := l.Health(0); h.ProbeInterval != cfg.MaxProbeSeconds {
		t.Fatalf("probe interval %v, want capped at %v", h.ProbeInterval, cfg.MaxProbeSeconds)
	}
}

func TestCollapseLadderSnapshotRestore(t *testing.T) {
	l, err := NewCollapseLadder(2, DefaultCollapseConfig())
	if err != nil {
		t.Fatal(err)
	}
	seq := []struct {
		hop    int
		outage bool
		at     float64
	}{{0, true, 0}, {0, true, 0.1}, {0, true, 0.2}, {1, true, 0.3}, {0, false, 2.5}, {1, false, 0.4}}
	for _, s := range seq[:4] {
		l.Observe(s.hop, s.outage, s.at)
	}
	snap := l.Snapshot()
	m, err := NewCollapseLadder(2, DefaultCollapseConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Restore(snap); err != nil {
		t.Fatal(err)
	}
	for _, s := range seq[4:] {
		l.Observe(s.hop, s.outage, s.at)
		m.Observe(s.hop, s.outage, s.at)
	}
	if fmt.Sprintf("%+v", l.Snapshot()) != fmt.Sprintf("%+v", m.Snapshot()) {
		t.Fatalf("restored ladder diverged:\n%+v\n%+v", l.Snapshot(), m.Snapshot())
	}
	if err := m.Restore(LadderState{Hops: make([]HopHealth, 3)}); err == nil {
		t.Fatal("hop-count mismatch accepted")
	}
	if _, err := NewCollapseLadder(0, DefaultCollapseConfig()); err == nil {
		t.Fatal("zero-hop ladder accepted")
	}
}

// The ladder's rungs are exactly the CapAt placements: each successive
// rung strictly reduces the live-hop set (satellite property's
// controller half; the placement half lives with the public TierPlan).
func TestCollapseLadderRungMonotone(t *testing.T) {
	l, err := NewCollapseLadder(3, CollapseConfig{FailThreshold: 1})
	if err != nil {
		t.Fatal(err)
	}
	prev := l.Cap()
	if prev != 3 {
		t.Fatalf("fresh cap %d, want 3", prev)
	}
	for hop := 2; hop >= 0; hop-- {
		l.Observe(hop, true, 0)
		cur := l.Cap()
		if cur >= prev {
			t.Fatalf("killing hop %d did not lower the cap: %d → %d", hop, prev, cur)
		}
		if cur != partition.Tier(hop) {
			t.Fatalf("cap %d after killing hop %d, want %d", cur, hop, hop)
		}
		prev = cur
	}
}
