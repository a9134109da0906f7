package xpro

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"xpro/internal/adaptive"
	"xpro/internal/biosig"
	"xpro/internal/faults"
	"xpro/internal/partition"
)

// armedTieredPlan solves a 3-tier plan for eng and arms it with cfg.
// When the solver parks every cell on the sensor tier the plan is
// first moved to the all-cloud extreme, so the chain actually crosses
// its hops and per-hop faults have traffic to hit.
func armedTieredPlan(t *testing.T, eng *Engine, cfg *TierResilience) *TierPlan {
	t.Helper()
	p, err := eng.PlanTiers(3)
	if err != nil {
		t.Fatal(err)
	}
	maxTier := 0
	for _, tier := range p.Assignment() {
		if tier > maxTier {
			maxTier = tier
		}
	}
	if maxTier == 0 {
		if err := p.PinAll(2); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Arm(cfg); err != nil {
		t.Fatal(err)
	}
	return p
}

// tierState and restoreTierState read and rewind an armed plan's
// runtime under the plan's lock.
func tierState(p *TierPlan) adaptive.TierState {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.rt.Snapshot()
}

func restoreTierState(p *TierPlan, st adaptive.TierState) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.rt.Restore(st)
}

// A clean armed chain serves every event full-fidelity from the top
// rung, and the walk agrees with itself across runs.
func TestTierPlanArmedCleanServesFull(t *testing.T) {
	eng := tieredTestEngine(t)
	p := armedTieredPlan(t, eng, &TierResilience{Seed: 5})
	test := eng.TestSet()
	for i := 0; i < 20; i++ {
		res, err := p.ClassifyResult(test[i].Samples)
		if err != nil {
			t.Fatalf("clean event %d: %v", i, err)
		}
		if res.Mode != ModeFull || res.Degraded || res.Tier != 2 || res.Probing {
			t.Fatalf("clean event %d not full-chain: %+v", i, res)
		}
	}
	if !p.Armed() {
		t.Fatal("plan not armed")
	}
}

// An unarmed plan rejects ClassifyResult.
func TestTierPlanClassifyRequiresArm(t *testing.T) {
	eng := tieredTestEngine(t)
	p, err := eng.PlanTiers(3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.ClassifyResult(eng.TestSet()[0].Samples); err == nil {
		t.Fatal("unarmed ClassifyResult accepted")
	}
}

// stormPlan schedules one hub-storm window over [0, end) seconds as a
// public FaultPlan (also exercising the "hub-storm" FaultWindow kind).
func stormPlan(end float64) *FaultPlan {
	return &FaultPlan{Windows: []FaultWindow{{Kind: "hub-storm", StartSeconds: 0, EndSeconds: end}}}
}

// A sustained hub storm walks the full ladder: typed degradation
// errors while the hop fights, a collapse onto the sensor+hub rung
// (served with nil error), probes when the storm clears, and a climb
// back to the full chain — all visible in the decision log.
func TestTierPlanHubStormCollapseAndRecover(t *testing.T) {
	eng := tieredTestEngine(t)
	p, err := eng.PlanTiers(3)
	if err != nil {
		t.Fatal(err)
	}
	p.mu.Lock()
	if err := p.install(partition.AllAt(p.ts.Tiered.Graph, 2)); err != nil {
		p.mu.Unlock()
		t.Fatal(err)
	}
	p.mu.Unlock()
	period := 1.0
	if ev := eng.sys().EventsPerSecond(); ev > 0 {
		period = 1 / ev
	}
	// The hop breaker's cooldown must be on the same scale as the
	// probe cadence, or an open breaker starves every revival probe
	// for most of the run.
	pol := DefaultResilience()
	pol.BreakerCooldownSeconds = 3 * period
	cfg := &TierResilience{
		Seed:     9,
		Policy:   pol,
		HopPlans: []*FaultPlan{nil, stormPlan(4.5 * period)},
		Collapse: &TierCollapse{
			FailThreshold: 2, ProbeAfterSeconds: 2 * period,
			ProbeBackoffFactor: 2, MaxProbeSeconds: 20 * period,
			RecoverySuccesses: 1, ProbationEvents: 2,
		},
	}
	if err := p.Arm(cfg); err != nil {
		t.Fatal(err)
	}
	test := eng.TestSet()
	var sawDegradedErr, sawCollapsed, sawProbe, sawRecovered bool
	for i := 0; i < 60; i++ {
		res, err := p.ClassifyResult(test[i%len(test)].Samples)
		var tde *TierDegradedError
		switch {
		case errors.As(err, &tde):
			sawDegradedErr = true
			if res.Label != 0 && res.Label != 1 {
				t.Fatalf("event %d: degraded answer has no label: %+v", i, res)
			}
			if !res.Degraded {
				t.Fatalf("event %d: TierDegradedError without Degraded result", i)
			}
			if res.Probing { // a revival probe that hit a still-dark hop
				sawProbe = true
			}
		case err != nil:
			t.Fatalf("event %d: %v", i, err)
		case res.Probing:
			sawProbe = true
		case res.Tier == 1 && res.Mode == ModeSensorLocal && res.Degraded:
			sawCollapsed = true
		case sawCollapsed && res.Mode == ModeFull && res.Tier == 2:
			sawRecovered = true
		}
	}
	if !sawDegradedErr || !sawCollapsed || !sawProbe || !sawRecovered {
		t.Fatalf("ladder phases missed: degradedErr=%v collapsed=%v probe=%v recovered=%v",
			sawDegradedErr, sawCollapsed, sawProbe, sawRecovered)
	}
	var sawDegradeOp, sawResolveOp bool
	for _, d := range p.Log() {
		if d.Op == "degrade" && d.Hop == 1 {
			sawDegradeOp = true
		}
		if d.Op == "resolve" && d.Hop == 2 {
			sawResolveOp = true
		}
	}
	if !sawDegradeOp || !sawResolveOp {
		t.Fatalf("decision log missing ladder ops: %+v", p.Log())
	}
	// The SLO report carries the per-hop picture.
	rep := eng.SLOReport()
	if len(rep.Hops) != 2 {
		t.Fatalf("SLO hops = %d, want 2", len(rep.Hops))
	}
	if rep.Hops[1].OutageEvents == 0 {
		t.Fatal("hop 1 outages not accounted in SLO")
	}
}

// Satellite: errors.As reaches the typed ladder errors and their
// fields — hop index, rung tier, retry budget consumed — and the chain
// unwraps to the link-down cause underneath.
func TestTierErrorsAsFields(t *testing.T) {
	eng := tieredTestEngine(t)
	p := armedTieredPlan(t, eng, &TierResilience{
		Seed:     3,
		HopPlans: []*FaultPlan{stormPlan(1e6), stormPlan(1e6)}, // whole chain dark
	})
	_, err := p.ClassifyResult(eng.TestSet()[0].Samples)
	var tde *TierDegradedError
	if !errors.As(err, &tde) {
		t.Fatalf("got %v, want TierDegradedError", err)
	}
	if tde.Hop != 0 {
		t.Fatalf("failed hop = %d, want 0 (first dead crossing)", tde.Hop)
	}
	if tde.Tier != 0 {
		t.Fatalf("serving rung = %d, want 0 (everything dark below the storm)", tde.Tier)
	}
	var hoe *HopOutageError
	if !errors.As(err, &hoe) {
		t.Fatalf("chain has no HopOutageError: %v", err)
	}
	if hoe.Hop != 0 {
		t.Fatalf("outage hop = %d, want 0", hoe.Hop)
	}
	if hoe.UntilSeconds != 1e6 {
		t.Fatalf("outage until = %v, want 1e6", hoe.UntilSeconds)
	}
	if hoe.RetriesConsumed != DefaultResilience().MaxRetries {
		t.Fatalf("retry budget consumed = %d, want %d", hoe.RetriesConsumed, DefaultResilience().MaxRetries)
	}
	if !faults.IsLinkDown(err) {
		t.Fatal("error chain does not reach the link-down cause")
	}
	// The degraded answer itself is still served, from the sensor rung.
	res, _ := p.ClassifyResult(eng.TestSet()[1].Samples)
	if res.Label != 0 && res.Label != 1 {
		t.Fatalf("no label under full storm: %+v", res)
	}
}

// Satellite: a moving install — re-cut, degrade, ladder rung — bumps
// the engine's serving epoch so memoized views (Network.Report, SLO)
// rebuild; Arm itself bumps it too.
func TestTierPlanInstallBumpsEpoch(t *testing.T) {
	eng := tieredTestEngine(t)
	p, err := eng.PlanTiers(3)
	if err != nil {
		t.Fatal(err)
	}
	before := eng.generation()
	moved, err := p.DegradeTiers(0)
	if err != nil {
		t.Fatal(err)
	}
	if !moved {
		t.Skip("solved plan already all-sensor; nothing to clamp")
	}
	if eng.generation() == before {
		t.Fatal("moving DegradeTiers did not bump the serving epoch")
	}
	before = eng.generation()
	if err := p.Resolve(); err != nil {
		t.Fatal(err)
	}
	if eng.generation() == before {
		t.Fatal("moving Resolve did not bump the serving epoch")
	}
	before = eng.generation()
	if err := p.Arm(&TierResilience{}); err != nil {
		t.Fatal(err)
	}
	if eng.generation() == before {
		t.Fatal("Arm did not bump the serving epoch")
	}
}

// Satellite property: the collapse ladder's rungs — the CapAt
// placements with re-homed result delivery — strictly reduce the live
// hop set rung by rung, and on a clean channel no rung introduces
// deadline violations: every rung serves every event completely.
func TestTierRungLadderMonotoneCleanChannel(t *testing.T) {
	eng := tieredTestEngine(t)
	p := armedTieredPlan(t, eng, &TierResilience{Seed: 21})
	test := eng.TestSet()
	k := 3
	prevLive := k // one past the top rung's hop count
	for cap := k - 1; cap >= 0; cap-- {
		p.mu.Lock()
		rung := p.rt.Rung(partition.Tier(cap))
		p.mu.Unlock()
		// Live hops of the rung: hops its placement and result delivery
		// may cross. Strictly fewer on every rung down.
		if cap >= prevLive {
			t.Fatalf("rung %d does not reduce live hops (prev %d)", cap, prevLive)
		}
		prevLive = cap
		for i := 0; i < 15; i++ {
			out, err := rung.ClassifyOver(biosig.Segment{Samples: test[i].Samples}, nil)
			if err != nil {
				t.Fatalf("rung %d event %d: %v", cap, i, err)
			}
			if !out.Complete || out.DeadlineExceeded {
				t.Fatalf("rung %d event %d violated the clean-channel contract: %+v", cap, i, out.Outcome)
			}
			for h := cap; h < k-1; h++ {
				if out.HopTransfersOK[h] != 0 || out.HopLost[h] != 0 {
					t.Fatalf("rung %d pushed traffic over dead hop %d: %+v", cap, h, out)
				}
			}
		}
	}
}

// A seeded storm run replays bit-identically: same seed, same events,
// same labels, rungs, errors and decision log.
func TestTierPlanReplayDeterminism(t *testing.T) {
	eng := tieredTestEngine(t)
	run := func() []string {
		p, err := eng.PlanTiers(3)
		if err != nil {
			t.Fatal(err)
		}
		p.mu.Lock()
		if err := p.install(partition.AllAt(p.ts.Tiered.Graph, 2)); err != nil {
			p.mu.Unlock()
			t.Fatal(err)
		}
		p.mu.Unlock()
		if err := p.Arm(&TierResilience{
			Seed: 41, HubStorms: 2, HorizonSeconds: 30,
			HopPlans: []*FaultPlan{nil, {Windows: []FaultWindow{
				{Kind: "loss-burst", StartSeconds: 0, EndSeconds: 30, Loss: 0.3}}}},
			Framed: true,
		}); err != nil {
			t.Fatal(err)
		}
		test := eng.TestSet()
		var log []string
		for i := 0; i < 50; i++ {
			res, err := p.ClassifyResult(test[i%len(test)].Samples)
			log = append(log, fmt.Sprintf("i=%d err=%v res=%+v", i, err, res))
		}
		for _, d := range p.Log() {
			log = append(log, d.String())
		}
		return log
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("replay lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at line %d:\n%s\n%s", i, a[i], b[i])
		}
	}
}

// Arm validation: too many hop plans, bad hub tier.
func TestTierResilienceValidation(t *testing.T) {
	eng := tieredTestEngine(t)
	p, err := eng.PlanTiers(3)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Arm(&TierResilience{HopPlans: make([]*FaultPlan, 3)}); err == nil {
		t.Error("3 hop plans on a 2-hop chain accepted")
	}
	if err := p.Arm(&TierResilience{HubStorms: 1, HubTier: 5}); err == nil {
		t.Error("hub tier 5 on a 3-tier chain accepted")
	}
}

// collapseToSensor serves events until the armed plan's ladder has
// collapsed onto the sensor rung and an event was served from it with a
// nil error; it returns that event.
func collapseToSensor(t *testing.T, p *TierPlan, test []Segment) TierResult {
	t.Helper()
	for i := 0; i < 20; i++ {
		res, err := p.ClassifyResult(test[i%len(test)].Samples)
		if err == nil && res.Tier == 0 && !res.Probing {
			return res
		}
	}
	t.Fatal("the ladder never collapsed onto the sensor rung")
	return TierResult{}
}

// A manual move while the ladder is collapsed keeps the ladder's cap:
// with hop 0 dark for good, events served after a Resolve at rung 0
// stay on the sensor rung with a nil error and the same modeled time,
// instead of re-attempting the dead chain every event.
func TestTierPlanMoveWhileCollapsedKeepsCap(t *testing.T) {
	eng, err := New(Config{Case: "E1"})
	if err != nil {
		t.Fatal(err)
	}
	p, err := eng.PlanTiers(3)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Arm(&TierResilience{Seed: 5, HopPlans: []*FaultPlan{stormPlan(1e6)}}); err != nil {
		t.Fatal(err)
	}
	test := eng.TestSet()
	before := collapseToSensor(t, p, test)
	if err := p.Resolve(); err != nil {
		t.Fatal(err)
	}
	if d := p.Log()[len(p.Log())-1]; d.Op != "resolve" || d.Moved {
		t.Fatalf("Resolve onto the home placement moved: %v", d)
	}
	served := 0
	for i := 0; i < 20; i++ {
		res, err := p.ClassifyResult(test[i%len(test)].Samples)
		if res.Probing {
			continue // a revival probe through the dark hop
		}
		served++
		if err != nil || res.Tier != 0 || res.SpentSeconds != before.SpentSeconds {
			t.Fatalf("event %d after the move: tier %d, %v s, err %v; want tier 0, %v s, nil error",
				i, res.Tier, res.SpentSeconds, err, before.SpentSeconds)
		}
	}
	if served == 0 {
		t.Fatal("every event after the move was a probe")
	}
}

// A manual move while the ladder is collapsed re-homes the ladder: the
// rungs are cut from the new home, so when the storm clears the ladder
// climbs back onto the placement Resolve installed, not the pin it
// replaced.
func TestTierPlanMoveWhileCollapsedSurvivesClimb(t *testing.T) {
	eng, err := New(Config{Case: "E1"})
	if err != nil {
		t.Fatal(err)
	}
	p, err := eng.PlanTiers(3)
	if err != nil {
		t.Fatal(err)
	}
	opt := p.Assignment()
	if err := p.PinAll(2); err != nil {
		t.Fatal(err)
	}
	period := 1 / eng.sys().EventsPerSecond()
	pol := DefaultResilience()
	pol.BreakerCooldownSeconds = 3 * period
	if err := p.Arm(&TierResilience{
		Seed: 9, Policy: pol,
		HopPlans: []*FaultPlan{stormPlan(4.5 * period)},
		Collapse: &TierCollapse{
			FailThreshold: 2, ProbeAfterSeconds: 2 * period,
			ProbeBackoffFactor: 2, MaxProbeSeconds: 20 * period,
			RecoverySuccesses: 1, ProbationEvents: 2,
		},
	}); err != nil {
		t.Fatal(err)
	}
	test := eng.TestSet()
	collapseToSensor(t, p, test)
	if err := p.Resolve(); err != nil {
		t.Fatal(err)
	}
	climbed := false
	for i := 0; i < 60 && !climbed; i++ {
		res, err := p.ClassifyResult(test[i%len(test)].Samples)
		var tde *TierDegradedError
		if err != nil && !errors.As(err, &tde) {
			t.Fatalf("event %d: %v", i, err)
		}
		climbed = err == nil && res.Tier == 2 && res.Mode == ModeFull
	}
	if !climbed {
		t.Fatal("the ladder never climbed back to the full chain")
	}
	got := p.Assignment()
	for i := range opt {
		if got[i] != opt[i] {
			t.Fatalf("cell %d on tier %d after the climb, want %d: the climb undid the Resolve", i, got[i], opt[i])
		}
	}
}

// A rejected snapshot is not half-applied: every field of every hop is
// checked before any hop is restored.
func TestTieredRestoreChecksWholeSnapshot(t *testing.T) {
	cfg := func() *TierResilience {
		return &TierResilience{Seed: 23, HopPlans: []*FaultPlan{{Windows: []FaultWindow{
			{Kind: "loss-burst", StartSeconds: 0, EndSeconds: 1e6, Loss: 0.35}}}}}
	}
	eng := tieredTestEngine(t)
	src := armedTieredPlan(t, eng, cfg())
	test := eng.TestSet()
	for i := 0; i < 30; i++ {
		_, _ = src.ClassifyResult(test[i%len(test)].Samples)
	}
	good := tierState(src)
	dst := armedTieredPlan(t, tieredTestEngine(t), cfg())
	fresh := tierState(dst)
	if good.Hops[0].Draws == fresh.Hops[0].Draws {
		t.Fatal("the source run left hop 0's RNG cursor where a fresh plan has it; the check would test nothing")
	}
	for _, c := range []struct {
		name  string
		spoil func(st *adaptive.TierState)
	}{
		{"unknown breaker", func(st *adaptive.TierState) { st.Hops[1].Breaker.State = 7 }},
		{"negative failures", func(st *adaptive.TierState) { st.Hops[1].Breaker.Failures = -1 }},
		{"NaN opened-at", func(st *adaptive.TierState) { st.Hops[1].Breaker.OpenedAt = math.NaN() }},
		{"RNG cursor", func(st *adaptive.TierState) { st.Hops[1].Draws = faults.MaxRNGDraws + 1 }},
		{"steady cap", func(st *adaptive.TierState) { st.Steady = 3 }},
		{"hop count", func(st *adaptive.TierState) { st.Hops = st.Hops[:1] }},
	} {
		st := good
		st.Hops = append([]adaptive.TierHopState(nil), good.Hops...)
		c.spoil(&st)
		if err := restoreTierState(dst, st); err == nil {
			t.Errorf("%s: snapshot accepted", c.name)
		}
		after := tierState(dst)
		if fmt.Sprintf("%+v", after) != fmt.Sprintf("%+v", fresh) {
			t.Errorf("%s: rejected snapshot was half-applied:\n got %+v\nwant %+v", c.name, after, fresh)
		}
	}
}
