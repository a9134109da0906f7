package chaos

import (
	"errors"
	"fmt"
	"math"

	"xpro/internal/adaptive"
	"xpro/internal/biosig"
	"xpro/internal/faults"
	"xpro/internal/partition"
	"xpro/internal/xsystem"
)

// This file is the tiered sibling of the 2-end soak: a seeded
// hub-storm battery over an N-tier chain. The hub (tier 1) keeps going
// dark in correlated windows that down both hops touching it, and
// three variants ride the same storms:
//
//   - static: the k-way placement walked as-is — every crossing of a
//     dark hop hard-fails, so storm events produce nothing;
//   - ladder: the 2-end degradation reflex lifted to k tiers — each
//     event attempts the full chain, and on failure re-serves from the
//     sensor-local rung (two rungs, no memory between events);
//   - tiered: the tier-collapse ladder — per-hop outage evidence caps
//     the placement below the dead hop, collapsed rungs serve cleanly
//     without touching the dark hops, and capped-backoff probes climb
//     back when the storm clears.
//
// Every draw is seeded and every timestamp comes off the modeled
// clock, so a battery replays bit-identically; each variant emits a
// per-event log line (floats at %.17g) as the determinism witness.

// HubStormConfig shapes one tiered hub-storm battery.
type HubStormConfig struct {
	// Seed drives the storm schedule and every per-hop loss stream.
	Seed int64
	// Events is the battery length in classified events (default 400).
	Events int
	// Storms is how many hub-dark windows the schedule draws over the
	// horizon (default 3).
	Storms int
	// DeadlineFactor scales T_XPro into the per-event deadline
	// (default 3 — the tiered walk pays a failed attempt AND a rung
	// re-serve on collapse events, which factor 2 would misprice as a
	// violation even when served promptly).
	DeadlineFactor float64
	// Framing, when set, arms per-frame integrity on every hop.
	Framing *faults.Framing
}

func (c *HubStormConfig) fill() {
	if c.Events <= 0 {
		c.Events = 400
	}
	if c.Storms <= 0 {
		c.Storms = 3
	}
	if c.DeadlineFactor <= 0 {
		c.DeadlineFactor = 3
	}
}

// HubStormVariant aggregates one variant's ride through the storms.
type HubStormVariant struct {
	Name string
	// Events is the number of events driven; StormEvents how many of
	// them arrived while the hub was dark.
	Events      int
	StormEvents int
	// Violations counts events that blew the deadline or produced no
	// label; NoResult the subset with no label at all; Degraded every
	// event below full-fidelity.
	Violations int
	NoResult   int
	Degraded   int
	// Collapses / Recoveries / Rollbacks are the tier-collapse
	// ladder's counters (zero for the other variants).
	Collapses, Recoveries, Rollbacks int
	// SensorEnergyJ is the total modeled sensor-tier energy spent.
	SensorEnergyJ float64
	// Log is the per-event determinism witness.
	Log []string
}

// InDeadlineFrac is the fraction of events served within deadline.
func (v *HubStormVariant) InDeadlineFrac() float64 {
	if v.Events == 0 {
		return 0
	}
	return float64(v.Events-v.Violations) / float64(v.Events)
}

// HubStormResult is one battery: three variants over identical storms.
type HubStormResult struct {
	Seed            int64
	HorizonSeconds  float64
	DeadlineSeconds float64

	Static HubStormVariant
	Ladder HubStormVariant
	Tiered HubStormVariant
}

// TieredDominates reports the battery's acceptance property: the
// tier-collapse ladder completes at least 99% of events within
// deadline while the static k-way walk hard-fails under the same
// storms.
func (r *HubStormResult) TieredDominates() bool {
	return r.Tiered.InDeadlineFrac() >= 0.99 &&
		r.Static.NoResult > 0 &&
		r.Static.InDeadlineFrac() < r.Tiered.InDeadlineFrac()
}

// hubStormPlan draws the battery's shared storm schedule.
func hubStormPlan(cfg HubStormConfig, horizon float64) *faults.Plan {
	return faults.HubStormPlan(cfg.Seed, faults.PlanConfig{
		Horizon: horizon, MeanDuration: horizon / 12, HubStorms: cfg.Storms,
	})
}

// hubStormPolicy scales the per-event budget to the chain's event
// period: light retries, and a breaker whose cooldown is on the probe
// cadence's scale (a cooldown much longer than the probe schedule
// starves every revival probe on an open breaker).
func hubStormPolicy(deadline, period float64) faults.Policy {
	return faults.Policy{
		Deadline:         deadline,
		MaxRetries:       2,
		Backoff:          faults.Backoff{Base: 0.2e-3, Max: 1.6e-3, Factor: 2},
		BreakerThreshold: 3,
		BreakerCooldown:  25 * period,
		MinVotes:         1,
	}
}

// hubStormCollapse scales the ladder's hysteresis to the event period.
func hubStormCollapse(period float64) adaptive.CollapseConfig {
	return adaptive.CollapseConfig{
		FailThreshold:      2,
		ProbeAfterSeconds:  10 * period,
		ProbeBackoffFactor: 2,
		MaxProbeSeconds:    120 * period,
		RecoverySuccesses:  1,
		ProbationEvents:    3,
	}
}

// hubStormHops builds one variant's fresh per-hop transports: every
// hop gets its own seeded lossy link, the storm plan merged onto both
// hops touching the hub (its downlink, hop 0, and its uplink, hop 1),
// and a per-hop breaker on the shared clock.
func hubStormHops(ts *xsystem.TieredSystem, storm *faults.Plan, pol faults.Policy,
	clock *faults.Clock, seed int64) ([]xsystem.HopTransport, error) {

	nh := len(ts.Tiered.Hops)
	hops := make([]xsystem.HopTransport, 0, nh)
	for h := 0; h < nh; h++ {
		var plan *faults.Plan
		if h == 0 || h == 1 {
			plan = storm
		}
		link, err := faults.NewLink(ts.Tiered.Hops[h].Link, plan, clock, 0, 0, faults.HopSeed(seed, h))
		if err != nil {
			return nil, err
		}
		breaker, err := faults.NewBreaker(pol.BreakerThreshold, pol.BreakerCooldown, clock)
		if err != nil {
			return nil, err
		}
		hops = append(hops, xsystem.HopTransport{Link: link, Breaker: breaker})
	}
	return hops, nil
}

// TieredRunner drives the tier-collapse variant one event at a time.
// Its whole mutable state — clock, per-hop links and breakers, ladder
// — snapshots and restores, so a mid-storm crash–recover cycle can be
// replayed against an uninterrupted golden run.
type TieredRunner struct {
	clock  *faults.Clock
	hops   []xsystem.HopTransport
	ladder *adaptive.CollapseLadder
	rungs  []*xsystem.TieredSystem
	storm  *faults.Plan
	pol    faults.Policy
	framed *faults.Framing

	period   float64
	deadline float64
}

// NewTieredRunner builds the tier-collapse runtime over ts for one
// battery configuration.
func NewTieredRunner(ts *xsystem.TieredSystem, cfg HubStormConfig) (*TieredRunner, error) {
	cfg.fill()
	if ts == nil {
		return nil, fmt.Errorf("chaos: nil tiered system")
	}
	ev := ts.EventsPerSecond()
	if !(ev > 0) {
		return nil, fmt.Errorf("chaos: tiered system has no event rate")
	}
	period := 1 / ev
	horizon := float64(cfg.Events) * period
	limit := tieredLimit(ts)
	deadline := cfg.DeadlineFactor * limit
	if math.IsNaN(deadline) || math.IsInf(deadline, 0) || deadline <= 0 {
		return nil, fmt.Errorf("chaos: deadline %v is not a positive finite budget", deadline)
	}
	pol := hubStormPolicy(deadline, period)
	clock := &faults.Clock{}
	storm := hubStormPlan(cfg, horizon)
	hops, err := hubStormHops(ts, storm, pol, clock, cfg.Seed)
	if err != nil {
		return nil, err
	}
	ladder, err := adaptive.NewCollapseLadder(len(hops), hubStormCollapse(period))
	if err != nil {
		return nil, err
	}
	rungs, err := ts.CollapseRungs()
	if err != nil {
		return nil, err
	}
	return &TieredRunner{
		clock: clock, hops: hops, ladder: ladder, rungs: rungs, storm: storm,
		pol: pol, framed: cfg.Framing, period: period, deadline: deadline,
	}, nil
}

// tieredLimit is the per-event serve budget's basis: T_XPro =
// min(T_F, T_B) of the underlying system — the same constraint the
// 2-end soak prices deadlines from — but never less than the clean
// full-chain serve time (compute delay plus every hop's air time).
// On chains whose uplink is slow relative to the 2-end extremes the
// min alone would put even a faultless full-chain event over budget,
// and the battery would measure the topology, not the storms.
func tieredLimit(ts *xsystem.TieredSystem) float64 {
	limit := ts.DelayOf(partition.InSensor(ts.Graph)).Total()
	if d := ts.DelayOf(partition.InAggregator(ts.Graph)).Total(); d < limit {
		limit = d
	}
	clean := ts.DelayOf(ts.Placement).Total()
	for _, air := range ts.TierReport().HopAirSeconds {
		clean += air
	}
	if clean > limit {
		limit = clean
	}
	return limit
}

// HubStormEvent is one event's row in the battery ledger.
type HubStormEvent struct {
	// Cap is the tier cap the event was served under (hop count = full
	// chain); Probing marks a revival probe through a collapsed hop.
	Cap     int
	Probing bool
	// StormNow is true when the hub was dark at the event's arrival.
	StormNow bool
	// NoResult means no label was produced even after re-homing.
	NoResult bool
	// Degraded is any serve below full-chain full fidelity.
	Degraded bool
	// DeadlineExceeded reflects the shared deadline budget, including
	// a failed attempt's struggle.
	DeadlineExceeded bool
	// SpentSeconds / SensorEnergyJ are the event's modeled cost.
	SpentSeconds  float64
	SensorEnergyJ float64
}

// Serve drives one event through the collapse ladder.
func (r *TieredRunner) Serve(seg biosig.Segment) (HubStormEvent, error) {
	now := r.clock.Now()
	capT, probing := r.ladder.EventCap(now)
	full := partition.Tier(len(r.hops))
	ev := HubStormEvent{Cap: int(capT), Probing: probing, StormNow: r.storm.At(now).HubDown}
	opt := &xsystem.TieredOptions{
		Hops: r.hops, Clock: r.clock, Policy: r.pol, Integrity: r.framed,
	}
	out, werr := r.rungs[capT].ClassifyOver(seg, opt)
	if werr != nil && len(out.HopOutage) == 0 {
		return ev, werr // structural rejection, not a channel outcome
	}
	r.clock.Advance(r.period)
	for h := range r.hops {
		attempted := out.HopTransfersOK[h] > 0 || out.HopLost[h] > 0 ||
			out.HopSkipped[h] > 0 || out.HopOutage[h]
		if attempted {
			r.ladder.Observe(h, out.HopOutage[h], now)
		}
	}
	if werr == nil {
		ev.SpentSeconds = out.SpentSeconds
		ev.SensorEnergyJ = out.SensorEnergy
		ev.Degraded = capT != full || !out.Complete
		ev.DeadlineExceeded = out.DeadlineExceeded || out.SpentSeconds > r.deadline
		return ev, nil
	}
	// The attempt died on a dead hop: re-home on the rung below it,
	// marching further down if that rung fails too (rung 0 crosses no
	// hop and cannot fail). The failed attempt's struggle stays on the
	// event's bill; its sensing is not charged twice.
	attempt := out.Outcome
	fbCap := partition.Tier(0)
	var ih *xsystem.HopOutageError
	if asHopOutage(werr, &ih) {
		fbCap = partition.Tier(ih.Hop)
	}
	var fout xsystem.TieredOutcome
	for {
		var ferr error
		fout, ferr = r.rungs[fbCap].ClassifyOver(seg, opt)
		if ferr == nil {
			break
		}
		if fbCap == 0 {
			ev.NoResult = true
			ev.Degraded = true
			ev.SpentSeconds = attempt.SpentSeconds
			ev.SensorEnergyJ = attempt.SensorEnergy
			ev.DeadlineExceeded = true
			return ev, nil
		}
		if asHopOutage(ferr, &ih) && partition.Tier(ih.Hop) < fbCap {
			fbCap = partition.Tier(ih.Hop)
		} else {
			fbCap = 0
		}
	}
	ev.Cap = int(fbCap)
	ev.Degraded = true
	ev.SpentSeconds = attempt.SpentSeconds + fout.SpentSeconds
	ev.SensorEnergyJ = fout.SensorEnergy
	if extra := attempt.SensorEnergy - r.rungs[0].Tiered.SensingEnergy; extra > 0 && fout.SensorEnergy > 0 {
		ev.SensorEnergyJ += extra
	} else if fout.SensorEnergy == 0 {
		ev.SensorEnergyJ += attempt.SensorEnergy
	}
	ev.DeadlineExceeded = attempt.DeadlineExceeded || fout.DeadlineExceeded ||
		ev.SpentSeconds > r.deadline
	return ev, nil
}

func asHopOutage(err error, out **xsystem.HopOutageError) bool {
	return errors.As(err, out)
}

// Counters returns the ladder's (collapses, recoveries, rollbacks).
func (r *TieredRunner) Counters() (int, int, int) { return r.ladder.Counters() }

// TieredRunnerState is the runner's full durable state.
type TieredRunnerState struct {
	ClockSeconds float64
	Ladder       adaptive.LadderState
	Breakers     []faults.BreakerSnapshot
	Draws        []uint64
}

// Snapshot captures everything a crash would wipe.
func (r *TieredRunner) Snapshot() TieredRunnerState {
	st := TieredRunnerState{
		ClockSeconds: r.clock.Now(),
		Ladder:       r.ladder.Snapshot(),
	}
	for h := range r.hops {
		st.Breakers = append(st.Breakers, r.hops[h].Breaker.Snapshot())
		st.Draws = append(st.Draws, r.hops[h].Link.Draws())
	}
	return st
}

// Restore rewinds the runner onto a snapshot; the next Serve continues
// the seeded timeline bit-identically to a runner that never died.
func (r *TieredRunner) Restore(st TieredRunnerState) error {
	if len(st.Breakers) != len(r.hops) || len(st.Draws) != len(r.hops) {
		return fmt.Errorf("chaos: snapshot covers %d/%d hops, runner has %d",
			len(st.Breakers), len(st.Draws), len(r.hops))
	}
	if err := r.ladder.Restore(st.Ladder); err != nil {
		return err
	}
	for h := range r.hops {
		if err := r.hops[h].Breaker.Restore(st.Breakers[h]); err != nil {
			return err
		}
		if err := r.hops[h].Link.RestoreDraws(st.Draws[h]); err != nil {
			return err
		}
	}
	r.clock.Restore(st.ClockSeconds)
	return nil
}

// HubStormSoak rides the three variants through one identical seeded
// storm schedule. ts supplies the chain and its home placement; segs
// the event stream, cycled as needed.
func HubStormSoak(ts *xsystem.TieredSystem, segs []biosig.Segment, cfg HubStormConfig) (*HubStormResult, error) {
	cfg.fill()
	if ts == nil {
		return nil, fmt.Errorf("chaos: nil tiered system")
	}
	if len(segs) == 0 {
		return nil, fmt.Errorf("chaos: no segments")
	}
	ev := ts.EventsPerSecond()
	if !(ev > 0) {
		return nil, fmt.Errorf("chaos: tiered system has no event rate")
	}
	period := 1 / ev
	horizon := float64(cfg.Events) * period
	deadline := cfg.DeadlineFactor * tieredLimit(ts)
	res := &HubStormResult{Seed: cfg.Seed, HorizonSeconds: horizon, DeadlineSeconds: deadline}

	var err error
	res.Static, err = hubStormFixed(ts, segs, cfg, false)
	if err != nil {
		return nil, err
	}
	res.Ladder, err = hubStormFixed(ts, segs, cfg, true)
	if err != nil {
		return nil, err
	}
	res.Tiered, err = hubStormTiered(ts, segs, cfg)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// hubStormFixed drives the static variant (fallback false: a failed
// event produces nothing) or the 2-rung ladder variant (fallback true:
// a failed event re-serves from the sensor-local rung).
func hubStormFixed(ts *xsystem.TieredSystem, segs []biosig.Segment, cfg HubStormConfig, fallback bool) (HubStormVariant, error) {
	name := "static"
	if fallback {
		name = "ladder"
	}
	v := HubStormVariant{Name: name}
	ev := ts.EventsPerSecond()
	period := 1 / ev
	horizon := float64(cfg.Events) * period
	deadline := cfg.DeadlineFactor * tieredLimit(ts)
	pol := hubStormPolicy(deadline, period)
	clock := &faults.Clock{}
	storm := hubStormPlan(cfg, horizon)
	hops, err := hubStormHops(ts, storm, pol, clock, cfg.Seed)
	if err != nil {
		return v, err
	}
	rungs, err := ts.CollapseRungs()
	if err != nil {
		return v, err
	}
	full := rungs[len(rungs)-1]
	sensing := ts.Tiered.SensingEnergy
	for i := 0; i < cfg.Events; i++ {
		seg := segs[i%len(segs)]
		now := clock.Now()
		stormNow := storm.At(now).HubDown
		opt := &xsystem.TieredOptions{Hops: hops, Clock: clock, Policy: pol, Integrity: cfg.Framing}
		out, werr := full.ClassifyOver(seg, opt)
		if werr != nil && len(out.HopOutage) == 0 {
			return v, werr
		}
		clock.Advance(period)
		spent := out.SpentSeconds
		energy := out.SensorEnergy
		noResult := false
		degraded := !out.Complete
		deadlined := out.DeadlineExceeded
		if werr != nil {
			degraded = true
			if !fallback {
				noResult = true
				deadlined = true
			} else {
				fout, ferr := rungs[0].ClassifyOver(seg, opt)
				spent += fout.SpentSeconds
				if fout.SensorEnergy > 0 && energy > 0 {
					energy += fout.SensorEnergy - sensing
				} else {
					energy += fout.SensorEnergy
				}
				deadlined = deadlined || fout.DeadlineExceeded
				if ferr != nil {
					noResult = true
					deadlined = true
				}
			}
		}
		deadlined = deadlined || spent > deadline
		v.Events++
		if stormNow {
			v.StormEvents++
		}
		if noResult || deadlined {
			v.Violations++
		}
		if noResult {
			v.NoResult++
		}
		if degraded || noResult {
			v.Degraded++
		}
		v.SensorEnergyJ += energy
		v.Log = append(v.Log, fmt.Sprintf(
			"%s %03d storm=%t err=%t noresult=%t degraded=%t deadlined=%t spent=%.17g energy=%.17g",
			name, i, stormNow, werr != nil, noResult, degraded, deadlined, spent, energy))
	}
	return v, nil
}

// hubStormTiered drives the tier-collapse variant through a
// TieredRunner.
func hubStormTiered(ts *xsystem.TieredSystem, segs []biosig.Segment, cfg HubStormConfig) (HubStormVariant, error) {
	v := HubStormVariant{Name: "tiered"}
	r, err := NewTieredRunner(ts, cfg)
	if err != nil {
		return v, err
	}
	for i := 0; i < cfg.Events; i++ {
		ev, err := r.Serve(segs[i%len(segs)])
		if err != nil {
			return v, err
		}
		v.Events++
		if ev.StormNow {
			v.StormEvents++
		}
		if ev.NoResult || ev.DeadlineExceeded {
			v.Violations++
		}
		if ev.NoResult {
			v.NoResult++
		}
		if ev.Degraded {
			v.Degraded++
		}
		v.SensorEnergyJ += ev.SensorEnergyJ
		v.Log = append(v.Log, fmt.Sprintf(
			"tiered %03d storm=%t cap=%d probe=%t noresult=%t degraded=%t deadlined=%t spent=%.17g energy=%.17g",
			i, ev.StormNow, ev.Cap, ev.Probing, ev.NoResult, ev.Degraded, ev.DeadlineExceeded,
			ev.SpentSeconds, ev.SensorEnergyJ))
	}
	v.Collapses, v.Recoveries, v.Rollbacks = r.Counters()
	return v, nil
}
