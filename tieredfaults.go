package xpro

import (
	"errors"
	"fmt"

	"xpro/internal/adaptive"
	"xpro/internal/biosig"
	"xpro/internal/faults"
	"xpro/internal/telemetry"
	"xpro/internal/xsystem"
)

// This file is the public face of the resilient N-tier runtime
// (adaptive.TierRuntime): TierPlan.Arm gives every hop of a solved
// tier chain its own fallible link (independent seeded fault plan,
// capped backoff, circuit breaker, optional framed transport), and
// TierPlan.ClassifyResult walks events across the armed chain,
// charging every hop crossing against the same deadline/energy budget
// the 2-end resilient path uses. Sustained hop failure degrades by
// TIER COLLAPSE: a hop the collapse ladder declares dead caps the
// serving placement below it, re-homing the dead tier's cells onto the
// tiers that still work —
//
//	full k-tier → collapsed (k−1)-tier → … → sensor-local
//
// — and capped-exponential probes climb the ladder back up when the
// hop heals, with a probation window so one lucky probe cannot flap
// the placement. All randomness is seeded per hop, so a run replays
// bit-identically, across goroutine counts and crash–recover cycles.

// TierCollapse shapes the tier-collapse ladder of an armed plan: how
// many consecutive hard-down events kill a hop, how the revival probes
// back off, and how long a revived hop stays on probation. The zero
// value of each field takes the default.
type TierCollapse struct {
	// FailThreshold is how many consecutive outage events on a hop
	// collapse the tiers above it (default 3; hysteresis — one bad
	// event never collapses a tier).
	FailThreshold int
	// ProbeAfterSeconds is the first revival-probe delay after a
	// collapse (default 2); each failed probe multiplies the interval
	// by ProbeBackoffFactor (default 2) up to MaxProbeSeconds
	// (default 30).
	ProbeAfterSeconds  float64
	ProbeBackoffFactor float64
	MaxProbeSeconds    float64
	// RecoverySuccesses is how many consecutive clean probes revive a
	// dead hop (default 2); ProbationEvents is the post-revival window
	// during which a single failure rolls straight back down
	// (default 5).
	RecoverySuccesses int
	ProbationEvents   int
}

// DefaultTierCollapse returns the ladder defaults.
func DefaultTierCollapse() *TierCollapse {
	d := adaptive.DefaultCollapseConfig()
	return &TierCollapse{
		FailThreshold:      d.FailThreshold,
		ProbeAfterSeconds:  d.ProbeAfterSeconds,
		ProbeBackoffFactor: d.ProbeBackoffFactor,
		MaxProbeSeconds:    d.MaxProbeSeconds,
		RecoverySuccesses:  d.RecoverySuccesses,
		ProbationEvents:    d.ProbationEvents,
	}
}

func (c *TierCollapse) internal() adaptive.CollapseConfig {
	if c == nil {
		return adaptive.DefaultCollapseConfig()
	}
	return adaptive.CollapseConfig{
		FailThreshold:      c.FailThreshold,
		ProbeAfterSeconds:  c.ProbeAfterSeconds,
		ProbeBackoffFactor: c.ProbeBackoffFactor,
		MaxProbeSeconds:    c.MaxProbeSeconds,
		RecoverySuccesses:  c.RecoverySuccesses,
		ProbationEvents:    c.ProbationEvents,
	}
}

// TierResilience arms a TierPlan with per-hop fault tolerance. Every
// hop gets an independent fallible channel derived from Seed (distinct
// hops draw from decorrelated streams), HubStorms optionally merges a
// correlated hub-dark schedule into both hops adjacent to HubTier, and
// Collapse shapes the tier-collapse degradation ladder.
type TierResilience struct {
	// Policy is the per-hop retry/deadline/breaker policy; nil takes
	// DefaultResilience(). The breaker threshold and cooldown apply
	// per hop — each hop gets its own breaker.
	Policy *Resilience
	// HopPlans[h] is hop h's fault schedule (nil entries are clean
	// hops). More plans than the chain has hops is an error.
	HopPlans []*FaultPlan
	// HubStorms merges that many correlated storm windows into every
	// hop adjacent to HubTier (default tier 1): the hub itself goes
	// dark, so both its downlink and uplink fail at the identical
	// instants. The schedule is drawn from Seed alone, so every
	// subject behind the same hub sees the same storms. 0 disables.
	HubStorms int
	// HubTier is the tier whose storms HubStorms schedules
	// (default 1, the first hub).
	HubTier int
	// HorizonSeconds is the hub-storm schedule's timeline length
	// (default 60 modeled seconds).
	HorizonSeconds float64
	// Seed drives every per-hop random stream; one seed replays one
	// identical run.
	Seed int64
	// Collapse shapes the tier-collapse ladder; nil takes
	// DefaultTierCollapse().
	Collapse *TierCollapse
	// Framed arms the framed-integrity transport (CRC + sequence
	// numbers, imputation) on every hop.
	Framed bool
}

// Arm builds the plan's per-hop fault-tolerance runtime: one fallible
// link and circuit breaker per hop, the tier-collapse ladder, and the
// xpro_hop_breaker_state / xpro_tier_collapse_total metrics. Arming
// replaces any previous runtime (rebuilding all transports and
// resetting the ladder) and registers the plan on its engine, so SLO
// and health reports carry per-hop liveness from then on.
func (p *TierPlan) Arm(cfg *TierResilience) error {
	if cfg == nil {
		cfg = &TierResilience{}
	}
	rc := cfg.Policy
	if rc == nil {
		rc = DefaultResilience()
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	tc := adaptive.TierConfig{
		Policy: rc.policy(), HubTier: cfg.HubTier, BaseLoss: rc.BaseLoss,
		Seed: cfg.Seed, Collapse: cfg.Collapse.internal(),
	}
	if tc.HubTier == 0 {
		tc.HubTier = 1
	}
	if cfg.HubStorms > 0 {
		if nh := len(p.ts.Tiered.Hops); tc.HubTier < 1 || tc.HubTier > nh-1 {
			return fmt.Errorf("xpro: hub tier %d outside [1,%d]", tc.HubTier, nh-1)
		}
		horizon := cfg.HorizonSeconds
		if horizon <= 0 {
			horizon = 60
		}
		tc.Storm = faults.HubStormPlan(cfg.Seed, faults.PlanConfig{
			Horizon: horizon, MeanDuration: horizon / 20, HubStorms: cfg.HubStorms,
		})
	}
	tc.HopPlans = make([]*faults.Plan, len(cfg.HopPlans))
	for h, hp := range cfg.HopPlans {
		if hp == nil {
			continue
		}
		plan, err := hp.internal()
		if err != nil {
			return err
		}
		tc.HopPlans[h] = plan
	}
	if cfg.Framed {
		tc.Framing = &faults.Framing{}
	}
	if p.eng != nil {
		if ev := p.eng.sys().EventsPerSecond(); ev > 0 {
			tc.Period = 1 / ev
		}
	}
	rt, err := adaptive.NewTierRuntime(p.ts, tc)
	if err != nil {
		return err
	}
	p.rt, p.collapses = rt, nil
	if p.eng != nil {
		eng, reg := p.eng, p.eng.obs.reg
		p.collapses = reg.Counter("xpro_tier_collapse_total",
			"Downward rung transitions of the tier-collapse ladder (tiers re-homed off a dead hop).")
		for h, hop := range rt.Options().Hops {
			g := reg.Gauge(telemetry.WithLabels("xpro_hop_breaker_state",
				map[string]string{"hop": fmt.Sprintf("%d", h)}),
				"Per-hop circuit breaker state: 0 closed, 1 half-open, 2 open.")
			g.Set(float64(faults.BreakerClosed))
			hop.Breaker.OnTransition = func(from, to faults.BreakerState) {
				g.Set(float64(to))
				eng.epoch.Add(1)
			}
		}
		eng.tier.Store(p)
		eng.epoch.Add(1)
	}
	return nil
}

// Armed reports whether the plan carries a per-hop fault runtime.
func (p *TierPlan) Armed() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.rt != nil
}

// HopOutageError reports one hop of an armed tier chain hard-down: an
// outage or hub-storm window covered the crossing (or the hop's
// breaker rejected it without burning air time). It unwraps to the
// transport cause, so errors.Is(err, ...) reaches the link-layer
// condition underneath.
type HopOutageError struct {
	// Hop is the dead hop's index (hop h connects tier h to h+1).
	Hop int
	// AtSeconds is the modeled time of the failed crossing;
	// UntilSeconds is when the covering fault window ends (0 when the
	// rejection came from the breaker, which has no window).
	AtSeconds    float64
	UntilSeconds float64
	// RetriesConsumed is how much of the per-transfer retry budget the
	// crossing burned before giving up.
	RetriesConsumed int
	// BreakerOpen is true when the hop's breaker rejected the crossing
	// without an attempt.
	BreakerOpen bool
	// Cause is the underlying transport error.
	Cause error
}

func (e *HopOutageError) Error() string {
	if e.BreakerOpen {
		return fmt.Sprintf("xpro: hop %d breaker open at t=%.3fs", e.Hop, e.AtSeconds)
	}
	return fmt.Sprintf("xpro: hop %d down at t=%.3fs (until t=%.3fs, %d retries consumed)",
		e.Hop, e.AtSeconds, e.UntilSeconds, e.RetriesConsumed)
}

func (e *HopOutageError) Unwrap() error { return e.Cause }

// TierDegradedError reports that an event's cross-tier attempt failed
// and the answer was re-served from a collapsed rung. The paired
// TierResult still carries a valid label — the error is provenance,
// like ErrSuspectData: it tells the caller which rung answered and
// why. It unwraps to the *HopOutageError (and through it to the
// transport cause) that forced the rung.
type TierDegradedError struct {
	// Tier is the rung that served the event (the highest tier used).
	Tier int
	// Hop is the hop whose failure forced the rung.
	Hop int
	// RetriesConsumed is the retry budget the failed attempt burned.
	RetriesConsumed int
	// Cause is the failed attempt's error, typically *HopOutageError.
	Cause error
}

func (e *TierDegradedError) Error() string {
	return fmt.Sprintf("xpro: served from tier-%d rung after hop %d failed (%d retries consumed): %v",
		e.Tier, e.Hop, e.RetriesConsumed, e.Cause)
}

func (e *TierDegradedError) Unwrap() error { return e.Cause }

// TierResult is one classification served through an armed tier chain:
// the 2-end Result provenance plus which rung of the collapse ladder
// answered.
type TierResult struct {
	Result
	// Tier is the highest tier the serving placement used (k-1 for the
	// full chain, 0 for sensor-local).
	Tier int
	// Probing is true when the event was let through a collapsed hop
	// to test whether it healed.
	Probing bool
}

// publicHopError translates the walk's internal hop-outage cause into
// the exported type, preserving the chain underneath.
func publicHopError(err error) *HopOutageError {
	var ih *xsystem.HopOutageError
	if !errors.As(err, &ih) {
		return nil
	}
	return &HopOutageError{
		Hop: ih.Hop, AtSeconds: ih.At, UntilSeconds: ih.Until,
		RetriesConsumed: ih.Retries, BreakerOpen: ih.BreakerOpen, Cause: ih,
	}
}

// ClassifyResult runs one event through the armed tier chain. The
// walk crosses every live hop under the per-hop retry/breaker policy;
// its outcome feeds the collapse ladder, which caps the placement when
// a hop keeps hard-failing and probes it back later. Events served
// while collapsed return a valid (degraded) result and a nil error —
// the rung IS the serving configuration; an event whose own cross-tier
// attempt fails is re-served from the rung below the dead hop within
// the same event and returns its label alongside a *TierDegradedError.
func (p *TierPlan) ClassifyResult(samples []float64) (TierResult, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	rt := p.rt
	if rt == nil {
		return TierResult{}, fmt.Errorf("xpro: plan is not armed (call Arm first)")
	}
	before := rt.Steady()
	ev, err := rt.Serve(biosig.Segment{Samples: samples})
	if after := rt.Steady(); after != before {
		// The ladder collapsed (or revived) hops on this event's
		// evidence: the steady rung changed.
		p.bump()
		op := "resolve"
		if after < before {
			op = "degrade"
			if p.collapses != nil {
				p.collapses.Inc()
			}
		}
		p.logDecision(TierDecision{Op: op, Hop: int(after), Moved: true})
	}
	if err != nil {
		return TierResult{}, err
	}
	res := TierResult{Result: resultOf(ev.Outcome), Tier: int(ev.Cap), Probing: ev.Probing}
	full := ev.Cap == rt.FullCap()
	switch {
	case full && ev.Complete:
		res.Mode = ModeFull
	case full && ev.PartialFusion:
		res.Mode, res.Degraded = ModePartial, true
	case ev.Cap == 0:
		res.Mode, res.Degraded = ModeFallbackSensor, true
	default:
		res.Mode, res.Degraded = ModeSensorLocal, true
	}
	if ev.Attempt == nil {
		return res, nil
	}
	tde := &TierDegradedError{Tier: int(ev.Cap), RetriesConsumed: ev.AttemptRetries, Cause: ev.Attempt}
	if pub := publicHopError(ev.Attempt); pub != nil {
		tde.Hop, tde.Cause = pub.Hop, pub
	}
	return res, tde
}

// resultOf maps a walk outcome onto the public Result provenance.
func resultOf(out xsystem.Outcome) Result {
	return Result{
		Label:     out.Label,
		VotesUsed: out.VotesUsed, VotesTotal: out.VotesTotal,
		Retries: out.Retries, LostTransfers: out.LostTransfers,
		DeadlineExceeded: out.DeadlineExceeded,
		SpentSeconds:     out.SpentSeconds,
		CorruptFrames:    out.CorruptFrames, CorruptDelivered: out.CorruptDelivered,
		ImputedValues:      out.ImputedValues,
		SensorEnergyJoules: out.SensorEnergy,
	}
}

// HopSLO is one hop's liveness slice of an engine SLO report (armed
// tier plans only).
type HopSLO struct {
	// Hop is the hop's index (hop h connects tier h to h+1).
	Hop int
	// Live is false while the collapse ladder holds the hop dead.
	Live bool
	// Breaker is the hop's circuit breaker state.
	Breaker string
	// Failures counts the hop's consecutive outage events; Probation
	// the remaining post-revival grace events.
	Failures  int
	Probation int
	// NextProbeAtSeconds is when a dead hop is probed next (modeled
	// clock; 0 for live hops).
	NextProbeAtSeconds float64
	// OutageEvents counts hard-down events on the hop since Arm.
	OutageEvents uint64
}

// hopSLO snapshots per-hop liveness for the SLO/health reports.
func (p *TierPlan) hopSLO() []HopSLO {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.rt == nil {
		return nil
	}
	st := p.rt.Snapshot()
	out := make([]HopSLO, len(st.Hops))
	for h, hs := range st.Hops {
		out[h] = HopSLO{
			Hop:      h,
			Live:     !hs.Health.Dead,
			Breaker:  p.rt.Options().Hops[h].Breaker.State().String(),
			Failures: hs.Health.Failures, Probation: hs.Health.Probation,
			OutageEvents: hs.Outages,
		}
		if hs.Health.Dead {
			out[h].NextProbeAtSeconds = hs.Health.NextProbeAt
		}
	}
	return out
}
