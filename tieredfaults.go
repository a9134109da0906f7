package xpro

import (
	"errors"
	"fmt"

	"xpro/internal/adaptive"
	"xpro/internal/biosig"
	"xpro/internal/faults"
	"xpro/internal/partition"
	"xpro/internal/telemetry"
	"xpro/internal/xsystem"
)

// This file is the resilient N-tier runtime: TierPlan.Arm gives every
// hop of a solved tier chain its own fallible link (independent seeded
// fault plan, capped backoff, circuit breaker, optional framed
// transport), and TierPlan.ClassifyResult walks events across the
// armed chain, charging every hop crossing against the same
// deadline/energy budget the 2-end resilient path uses. Sustained hop
// failure degrades by TIER COLLAPSE: a hop the collapse ladder
// declares dead caps the serving placement below it, re-homing the
// dead tier's cells onto the tiers that still work —
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

// tierRuntime is the armed per-hop fault-tolerance state of a plan.
// Everything here is guarded by the owning TierPlan's mu.
type tierRuntime struct {
	policy  faults.Policy
	clock   *faults.Clock
	hops    []xsystem.HopTransport
	ladder  *adaptive.CollapseLadder
	framing *faults.Framing
	period  float64
	seed    int64
	// rungs[c] serves the home placement clamped to tiers ≤ c, with
	// result delivery re-homed onto the cap (xsystem CollapseRungs);
	// nil after a manual move re-homed the ladder, until the next
	// lookup rebuilds it.
	rungs []*xsystem.TieredSystem
	// steady is the cap the currently installed serving system was cut
	// for (invariant: p.ts serves rung(steady) between transitions).
	steady partition.Tier
	// outages counts hard-down events per hop since Arm.
	outages []uint64
	// gauges[h] mirrors hop h's breaker state; collapses counts
	// downward rung transitions.
	gauges    []*telemetry.Gauge
	collapses *telemetry.Counter
}

func (rt *tierRuntime) fullCap() partition.Tier { return partition.Tier(len(rt.hops)) }

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
	pol := rc.policy()
	if err := pol.Validate(); err != nil {
		return err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	nh := len(p.ts.Tiered.Hops)
	if len(cfg.HopPlans) > nh {
		return fmt.Errorf("xpro: %d hop plans for a %d-hop chain", len(cfg.HopPlans), nh)
	}
	hubTier := cfg.HubTier
	if hubTier == 0 {
		hubTier = 1
	}
	if cfg.HubStorms > 0 && (hubTier < 1 || hubTier > nh-1) {
		return fmt.Errorf("xpro: hub tier %d outside [1,%d]", hubTier, nh-1)
	}
	horizon := cfg.HorizonSeconds
	if horizon <= 0 {
		horizon = 60
	}
	var storm *faults.Plan
	if cfg.HubStorms > 0 {
		storm = faults.HubStormPlan(cfg.Seed, faults.PlanConfig{
			Horizon: horizon, MeanDuration: horizon / 20, HubStorms: cfg.HubStorms,
		})
	}
	clock := &faults.Clock{}
	rungs, err := p.ts.CollapseRungs()
	if err != nil {
		return err
	}
	rt := &tierRuntime{
		policy: pol, clock: clock, seed: cfg.Seed,
		rungs:   rungs,
		steady:  partition.Tier(nh),
		outages: make([]uint64, nh),
	}
	if cfg.Framed {
		rt.framing = &faults.Framing{}
	}
	if p.eng != nil {
		if ev := p.eng.sys().EventsPerSecond(); ev > 0 {
			rt.period = 1 / ev
		}
		reg := p.eng.obs.reg
		rt.collapses = reg.Counter("xpro_tier_collapse_total",
			"Downward rung transitions of the tier-collapse ladder (tiers re-homed off a dead hop).")
	}
	ladder, err := adaptive.NewCollapseLadder(nh, cfg.Collapse.internal())
	if err != nil {
		return err
	}
	rt.ladder = ladder
	for h := 0; h < nh; h++ {
		var plan *faults.Plan
		if h < len(cfg.HopPlans) && cfg.HopPlans[h] != nil {
			plan, err = cfg.HopPlans[h].internal()
			if err != nil {
				return err
			}
		}
		// The hub's dark periods down both hops touching it: its
		// downlink (hop hubTier-1) and its uplink (hop hubTier).
		if storm != nil && (h == hubTier-1 || h == hubTier) {
			plan = faults.MergePlans(plan, storm)
			if err := plan.Validate(); err != nil {
				return err
			}
		}
		link, err := faults.NewLink(p.ts.Tiered.Hops[h].Link, plan, clock,
			rc.BaseLoss, 0, faults.HopSeed(cfg.Seed, h))
		if err != nil {
			return err
		}
		breaker, err := faults.NewBreaker(pol.BreakerThreshold, pol.BreakerCooldown, clock)
		if err != nil {
			return err
		}
		if p.eng != nil {
			g := p.eng.obs.reg.Gauge(telemetry.WithLabels("xpro_hop_breaker_state",
				map[string]string{"hop": fmt.Sprintf("%d", h)}),
				"Per-hop circuit breaker state: 0 closed, 1 half-open, 2 open.")
			g.Set(float64(faults.BreakerClosed))
			rt.gauges = append(rt.gauges, g)
			eng, hop := p.eng, h
			breaker.OnTransition = func(from, to faults.BreakerState) {
				rt.gauges[hop].Set(float64(to))
				eng.epoch.Add(1)
			}
		}
		rt.hops = append(rt.hops, xsystem.HopTransport{Link: link, Breaker: breaker})
	}
	p.rt = rt
	if p.eng != nil {
		p.eng.tier.Store(p)
		p.eng.epoch.Add(1)
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

// rungLocked returns the serving sibling for cap: the home placement
// clamped to tiers ≤ cap, with result delivery re-homed onto the cap
// so the walk never marches results across hops known dead. It reads
// the prebuilt rung slice, rebuilding it from the serving system after
// a manual move re-homed the ladder. Callers hold p.mu.
func (p *TierPlan) rungLocked(cap partition.Tier) (*xsystem.TieredSystem, error) {
	if p.rt.rungs == nil {
		rungs, err := p.ts.CollapseRungs()
		if err != nil {
			return nil, err
		}
		p.rt.rungs = rungs
	}
	return p.rt.rungs[cap], nil
}

// installRungLocked makes cap the steady serving rung: the sibling is
// installed (bumping the engine epoch) and the transition is logged —
// a collapse as op "degrade", a climb as op "resolve". Callers hold
// p.mu.
func (p *TierPlan) installRungLocked(cap partition.Tier) error {
	ts, err := p.rungLocked(cap)
	if err != nil {
		return err
	}
	down := cap < p.rt.steady
	p.swap(ts)
	p.rt.steady = cap
	op := "resolve"
	if down {
		op = "degrade"
		if p.rt.collapses != nil {
			p.rt.collapses.Inc()
		}
	}
	p.logDecision(TierDecision{Op: op, Hop: int(cap), Moved: true})
	return nil
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
	seg := biosig.Segment{Samples: samples}
	now := rt.clock.Now()
	capT, probing := rt.ladder.EventCap(now)
	serve := p.ts
	if probing || capT != rt.steady {
		// Probe events (and caps the steady install has not caught up
		// with) serve from a transient rung sibling; the steady system
		// is not disturbed until the ladder settles.
		var err error
		serve, err = p.rungLocked(capT)
		if err != nil {
			return TierResult{}, err
		}
	}
	opt := &xsystem.TieredOptions{
		Hops: rt.hops, Clock: rt.clock, Policy: rt.policy, Integrity: rt.framing,
	}
	out, werr := serve.ClassifyOver(seg, opt)
	if werr != nil && len(out.HopOutage) == 0 {
		// Rejected before the walk started (bad segment): nothing was
		// attempted, nothing to observe or degrade.
		return TierResult{}, werr
	}
	rt.clock.Advance(rt.period)

	// Feed the ladder: only hops the event actually attempted are
	// evidence — absence of traffic says nothing about health.
	for h := range rt.hops {
		attempted := out.HopTransfersOK[h] > 0 || out.HopLost[h] > 0 ||
			out.HopSkipped[h] > 0 || out.HopOutage[h]
		if !attempted {
			continue
		}
		if out.HopOutage[h] {
			rt.outages[h]++
		}
		rt.ladder.Observe(h, out.HopOutage[h], now)
	}

	res := TierResult{Tier: int(capT), Probing: probing}
	var cerr error
	if werr == nil {
		res.Result = resultOf(out.Outcome)
		full := capT == rt.fullCap()
		switch {
		case full && out.Complete:
			res.Mode = ModeFull
		case full && out.PartialFusion:
			res.Mode, res.Degraded = ModePartial, true
		case capT == 0:
			res.Mode, res.Degraded = ModeFallbackSensor, true
		default:
			res.Mode, res.Degraded = ModeSensorLocal, true
		}
	} else {
		// The attempt died crossing a dead hop: re-home the event on
		// the rung below it, marching further down if that rung's own
		// crossings fail too. Rung 0 crosses no hop and cannot fail.
		attempt := out.Outcome
		pub := publicHopError(werr)
		failedHop := 0
		fbCap := partition.Tier(0)
		if pub != nil {
			failedHop = pub.Hop
			fbCap = partition.Tier(pub.Hop)
		}
		var ferr error = werr
		var fout xsystem.TieredOutcome
		for {
			rung, rerr := p.rungLocked(fbCap)
			if rerr != nil {
				return TierResult{}, rerr
			}
			fout, ferr = rung.ClassifyOver(seg, opt)
			if ferr == nil {
				break
			}
			if fbCap == 0 {
				return TierResult{}, ferr
			}
			var ih *xsystem.HopOutageError
			if errors.As(ferr, &ih) && partition.Tier(ih.Hop) < fbCap {
				fbCap = partition.Tier(ih.Hop)
			} else {
				fbCap = 0
			}
		}
		res.Result = resultOf(fout.Outcome)
		res.Tier = int(fbCap)
		res.Degraded = true
		res.Mode = ModeSensorLocal
		if fbCap == 0 {
			res.Mode = ModeFallbackSensor
		}
		// The failed attempt's struggle rides on top of the rung's
		// serve; when the attempt sensed the segment once, the rung
		// does not sense it again.
		res.Retries += attempt.Retries
		res.LostTransfers += attempt.LostTransfers
		res.SpentSeconds += attempt.SpentSeconds
		res.DeadlineExceeded = res.DeadlineExceeded || attempt.DeadlineExceeded
		fe := attempt.SensorEnergy
		if fout.SensorEnergy > 0 && attempt.SensorEnergy > 0 {
			fe -= p.ts.Tiered.SensingEnergy
		}
		if fe > 0 {
			res.SensorEnergyJoules += fe
		}
		var cause error = werr
		if pub != nil {
			cause = pub
		}
		cerr = &TierDegradedError{
			Tier: int(fbCap), Hop: failedHop,
			RetriesConsumed: attempt.Retries, Cause: cause,
		}
	}

	// Settle the steady rung: the ladder may have collapsed (or
	// revived) hops on this event's evidence.
	if c := rt.ladder.Cap(); c != rt.steady {
		if ierr := p.installRungLocked(c); ierr != nil {
			return res, ierr
		}
	}
	return res, cerr
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
	out := make([]HopSLO, len(p.rt.hops))
	for h := range p.rt.hops {
		hh := p.rt.ladder.Health(h)
		out[h] = HopSLO{
			Hop:      h,
			Live:     !hh.Dead,
			Breaker:  p.rt.hops[h].Breaker.State().String(),
			Failures: hh.Failures, Probation: hh.Probation,
			OutageEvents: p.rt.outages[h],
		}
		if hh.Dead {
			out[h].NextProbeAtSeconds = hh.NextProbeAt
		}
	}
	return out
}

// TierHopState is one hop's durable runtime state inside
// TieredSubjectState.
type TierHopState struct {
	// Breaker is the hop breaker's state ("closed", "half-open",
	// "open"), with its consecutive-failure count and the modeled time
	// it last opened.
	Breaker                string
	BreakerFailures        int
	BreakerOpenedAtSeconds float64
	// RNGDraws is the hop link's random-stream position.
	RNGDraws uint64
	// Failures / Successes / Dead / NextProbeAtSeconds /
	// ProbeIntervalSeconds / ProbationEvents mirror the collapse
	// ladder's per-hop health.
	Failures             int
	Successes            int
	Dead                 bool
	NextProbeAtSeconds   float64
	ProbeIntervalSeconds float64
	ProbationEvents      int
	// OutageEvents counts hard-down events seen on the hop.
	OutageEvents uint64
}

// TieredSubjectState is the armed tier runtime's durable state: the
// modeled clock, the steady rung, and every hop's breaker, RNG and
// ladder position. Restoring it onto a freshly armed plan (same chain,
// same TierResilience) resumes the run bit-identically.
type TieredSubjectState struct {
	// ClockSeconds is the runtime's modeled time.
	ClockSeconds float64
	// SteadyCap is the rung the plan was serving from (k-1 = full).
	SteadyCap int
	// Hops has one entry per hop of the chain.
	Hops []TierHopState
	// Collapses / Recoveries / Rollbacks are the ladder's counters.
	Collapses  int
	Recoveries int
	Rollbacks  int
}

// TieredState snapshots the armed runtime's durable state.
func (p *TierPlan) TieredState() (TieredSubjectState, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.tieredStateLocked()
}

func (p *TierPlan) tieredStateLocked() (TieredSubjectState, error) {
	rt := p.rt
	if rt == nil {
		return TieredSubjectState{}, fmt.Errorf("xpro: plan is not armed")
	}
	ls := rt.ladder.Snapshot()
	st := TieredSubjectState{
		ClockSeconds: rt.clock.Now(),
		SteadyCap:    int(rt.steady),
		Collapses:    ls.Collapses, Recoveries: ls.Recoveries, Rollbacks: ls.Rollbacks,
	}
	for h := range rt.hops {
		bs := rt.hops[h].Breaker.Snapshot()
		hh := ls.Hops[h]
		st.Hops = append(st.Hops, TierHopState{
			Breaker:                bs.State.String(),
			BreakerFailures:        bs.Failures,
			BreakerOpenedAtSeconds: bs.OpenedAt,
			RNGDraws:               rt.hops[h].Link.Draws(),
			Failures:               hh.Failures,
			Successes:              hh.Successes,
			Dead:                   hh.Dead,
			NextProbeAtSeconds:     hh.NextProbeAt,
			ProbeIntervalSeconds:   hh.ProbeInterval,
			ProbationEvents:        hh.Probation,
			OutageEvents:           rt.outages[h],
		})
	}
	return st, nil
}

// RestoreTieredState rewinds an armed plan onto a snapshot: every hop
// link's RNG is fast-forwarded to its recorded draw count, breakers
// and the collapse ladder resume their exact state, the modeled clock
// jumps to the snapshot time, and the steady rung is reinstalled. The
// plan must be armed for the same chain the snapshot covers.
func (p *TierPlan) RestoreTieredState(st TieredSubjectState) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.restoreTieredLocked(st)
}

func (p *TierPlan) restoreTieredLocked(st TieredSubjectState) error {
	rt := p.rt
	if rt == nil {
		return fmt.Errorf("xpro: plan is not armed")
	}
	if len(st.Hops) != len(rt.hops) {
		return fmt.Errorf("xpro: snapshot covers %d hops, chain has %d", len(st.Hops), len(rt.hops))
	}
	if st.SteadyCap < 0 || st.SteadyCap > len(rt.hops) {
		return fmt.Errorf("xpro: snapshot steady cap %d outside [0,%d]", st.SteadyCap, len(rt.hops))
	}
	ls := adaptive.LadderState{
		Hops:      make([]adaptive.HopHealth, len(st.Hops)),
		Collapses: st.Collapses, Recoveries: st.Recoveries, Rollbacks: st.Rollbacks,
	}
	for h, hs := range st.Hops {
		var bst faults.BreakerState
		switch hs.Breaker {
		case "closed":
			bst = faults.BreakerClosed
		case "half-open":
			bst = faults.BreakerHalfOpen
		case "open":
			bst = faults.BreakerOpen
		default:
			return fmt.Errorf("xpro: hop %d has unknown breaker state %q", h, hs.Breaker)
		}
		if err := rt.hops[h].Breaker.Restore(faults.BreakerSnapshot{
			State: bst, Failures: hs.BreakerFailures, OpenedAt: hs.BreakerOpenedAtSeconds,
		}); err != nil {
			return err
		}
		if err := rt.hops[h].Link.RestoreDraws(hs.RNGDraws); err != nil {
			return fmt.Errorf("xpro: hop %d: %w", h, err)
		}
		ls.Hops[h] = adaptive.HopHealth{
			Failures: hs.Failures, Successes: hs.Successes, Dead: hs.Dead,
			NextProbeAt: hs.NextProbeAtSeconds, ProbeInterval: hs.ProbeIntervalSeconds,
			Probation: hs.ProbationEvents,
		}
		rt.outages[h] = hs.OutageEvents
	}
	if err := rt.ladder.Restore(ls); err != nil {
		return err
	}
	rt.clock.Restore(st.ClockSeconds)
	if cap := partition.Tier(st.SteadyCap); cap != rt.steady {
		ts, err := p.rungLocked(cap)
		if err != nil {
			return err
		}
		p.swap(ts)
		rt.steady = cap
	}
	return nil
}
