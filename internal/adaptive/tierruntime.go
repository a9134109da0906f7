package adaptive

import (
	"errors"
	"fmt"

	"xpro/internal/biosig"
	"xpro/internal/faults"
	"xpro/internal/partition"
	"xpro/internal/xsystem"
)

// TierRuntime is the armed k-tier serving runtime the collapse ladder
// drives: one seeded fallible link and circuit breaker per hop on a
// shared modeled clock, the ladder over them, and the collapse rungs
// cut from a home placement. Every event is served by the rung at the
// ladder's cap for that event; an event whose attempt dies on a hop is
// re-homed on the rung below that hop within the same event. A manual
// move re-cuts the rungs from the new home, and the current cap keeps
// applying to it. The runtime is not goroutine-safe: its owner
// serializes events.
type TierRuntime struct {
	// opt carries every walk's hops, clock, policy and framing.
	opt    xsystem.TieredOptions
	period float64
	ladder *CollapseLadder
	// rungs[c] serves the home placement clamped to tiers ≤ c, with
	// result delivery re-homed onto the cap (xsystem CollapseRungs).
	rungs []*xsystem.TieredSystem
	// steady is the cap the ladder settled on after the last event.
	steady partition.Tier
	// outages counts hard-down events per hop.
	outages []uint64
}

// TierConfig arms a TierRuntime.
type TierConfig struct {
	// Policy is the per-event deadline, retry and backoff budget; every
	// hop gets its own breaker with the policy's threshold and cooldown.
	Policy faults.Policy
	// HopPlans[h] is hop h's fault schedule (nil entries are clean
	// hops). More plans than the chain has hops is an error.
	HopPlans []*faults.Plan
	// Storm, when set, is a hub-dark schedule merged onto both hops of
	// tier HubTier: its downlink (hop HubTier−1) and its uplink (hop
	// HubTier), which then fail at identical instants.
	Storm   *faults.Plan
	HubTier int
	// BaseLoss is every link's background loss; Seed derives each hop's
	// random stream (faults.HopSeed).
	BaseLoss float64
	Seed     int64
	// Framing, when set, arms per-frame integrity on every hop.
	Framing *faults.Framing
	// Collapse shapes the ladder; Period is the modeled time each event
	// advances the clock by.
	Collapse CollapseConfig
	Period   float64
}

// NewTierRuntime arms home's chain: it builds every hop's link and
// breaker, the collapse ladder and the rungs, with the ladder at full
// height.
func NewTierRuntime(home *xsystem.TieredSystem, cfg TierConfig) (*TierRuntime, error) {
	if home == nil {
		return nil, errors.New("adaptive: nil tiered system")
	}
	if err := cfg.Policy.Validate(); err != nil {
		return nil, err
	}
	nh := len(home.Tiered.Hops)
	if len(cfg.HopPlans) > nh {
		return nil, fmt.Errorf("adaptive: %d hop plans for a %d-hop chain", len(cfg.HopPlans), nh)
	}
	rungs, err := home.CollapseRungs()
	if err != nil {
		return nil, err
	}
	ladder, err := NewCollapseLadder(nh, cfg.Collapse)
	if err != nil {
		return nil, err
	}
	clock := &faults.Clock{}
	rt := &TierRuntime{
		opt:    xsystem.TieredOptions{Clock: clock, Policy: cfg.Policy, Integrity: cfg.Framing},
		period: cfg.Period, ladder: ladder, rungs: rungs,
		steady: partition.Tier(nh), outages: make([]uint64, nh),
	}
	for h := 0; h < nh; h++ {
		var plan *faults.Plan
		if h < len(cfg.HopPlans) {
			plan = cfg.HopPlans[h]
		}
		if cfg.Storm != nil && (h == cfg.HubTier-1 || h == cfg.HubTier) {
			plan = faults.MergePlans(plan, cfg.Storm)
		}
		link, err := faults.NewLink(home.Tiered.Hops[h].Link, plan, clock, cfg.BaseLoss, 0, faults.HopSeed(cfg.Seed, h))
		if err != nil {
			return nil, err
		}
		breaker, err := faults.NewBreaker(cfg.Policy.BreakerThreshold, cfg.Policy.BreakerCooldown, clock)
		if err != nil {
			return nil, err
		}
		rt.opt.Hops = append(rt.opt.Hops, xsystem.HopTransport{Link: link, Breaker: breaker})
	}
	return rt, nil
}

// Options returns the walk options every rung is served with: the
// per-hop transports, the clock, the policy and the framing.
func (rt *TierRuntime) Options() *xsystem.TieredOptions { return &rt.opt }

// FullCap is the cap of the full chain: its hop count.
func (rt *TierRuntime) FullCap() partition.Tier { return partition.Tier(len(rt.opt.Hops)) }

// Steady is the cap the ladder settled on after the last event.
func (rt *TierRuntime) Steady() partition.Tier { return rt.steady }

// Rung returns the rung serving cap c: the home placement clamped to
// tiers ≤ c, delivering its result on tier c or below.
func (rt *TierRuntime) Rung(c partition.Tier) *xsystem.TieredSystem { return rt.rungs[c] }

// Rehome makes home the placement the rungs are cut from. The ladder
// and the cap are kept, so a move while collapsed still serves below
// the dead hop, and the ladder climbs back onto the new home.
func (rt *TierRuntime) Rehome(home *xsystem.TieredSystem) error {
	if len(home.Tiered.Hops) != len(rt.opt.Hops) {
		return fmt.Errorf("adaptive: home crosses %d hops, runtime has %d", len(home.Tiered.Hops), len(rt.opt.Hops))
	}
	rungs, err := home.CollapseRungs()
	if err != nil {
		return err
	}
	rt.rungs = rungs
	return nil
}

// TierEvent is one event served by a TierRuntime.
type TierEvent struct {
	// Outcome is the event's bill. A re-homed event carries the serving
	// rung's outcome plus the failed attempt's retries, lost transfers,
	// time, deadline flag, and sensor energy beyond the one sensing.
	xsystem.Outcome
	// Cap is the rung that served the event; Probing is true when the
	// ladder let the event through a dead hop to probe it.
	Cap     partition.Tier
	Probing bool
	// Attempt is the first attempt's error when it died on a hop and the
	// event was re-homed (nil otherwise); AttemptRetries is the retry
	// budget that attempt burned.
	Attempt        error
	AttemptRetries int
}

// Serve runs one event: the walk at the ladder's cap for the event,
// the clock advance, the per-hop evidence, the steady cap, and the
// re-home and bill merge of an attempt that died on a hop. An error
// means the segment was rejected before any hop was attempted, or
// that rung 0, which crosses no hop, failed too.
func (rt *TierRuntime) Serve(seg biosig.Segment) (TierEvent, error) {
	now := rt.opt.Clock.Now()
	capT, probing := rt.ladder.EventCap(now)
	out, err := rt.rungs[capT].ClassifyOver(seg, &rt.opt)
	if err != nil && len(out.HopOutage) == 0 {
		return TierEvent{}, err
	}
	rt.opt.Clock.Advance(rt.period)
	// Only hops the event attempted are evidence: absence of traffic
	// says nothing about health.
	for h := range rt.opt.Hops {
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
	rt.steady = rt.ladder.Cap()
	ev := TierEvent{Outcome: out.Outcome, Cap: capT, Probing: probing}
	if err == nil {
		return ev, nil
	}

	// The attempt died crossing a dead hop: re-home the event on the
	// rung below it, marching further down if that rung's own crossings
	// fail too. Rung 0 crosses no hop.
	attempt := out.Outcome
	ev.Attempt, ev.AttemptRetries = err, attempt.Retries
	ev.Cap = 0
	var ih *xsystem.HopOutageError
	if errors.As(err, &ih) {
		ev.Cap = partition.Tier(ih.Hop)
	}
	for {
		out, err = rt.rungs[ev.Cap].ClassifyOver(seg, &rt.opt)
		if err == nil {
			break
		}
		if ev.Cap == 0 {
			return TierEvent{}, err
		}
		if errors.As(err, &ih) && partition.Tier(ih.Hop) < ev.Cap {
			ev.Cap = partition.Tier(ih.Hop)
		} else {
			ev.Cap = 0
		}
	}
	// The failed attempt's struggle rides on top of the rung's serve;
	// when the attempt sensed the segment, the rung does not sense it
	// again.
	ev.Outcome = out.Outcome
	ev.Retries += attempt.Retries
	ev.LostTransfers += attempt.LostTransfers
	ev.SpentSeconds += attempt.SpentSeconds
	ev.DeadlineExceeded = ev.DeadlineExceeded || attempt.DeadlineExceeded
	extra := attempt.SensorEnergy
	if out.SensorEnergy > 0 && extra > 0 {
		extra -= rt.rungs[0].Tiered.SensingEnergy
	}
	if extra > 0 {
		ev.SensorEnergy += extra
	}
	return ev, nil
}

// TierHopState is one hop's share of a TierState.
type TierHopState struct {
	Breaker faults.BreakerSnapshot
	// Draws is the hop link's RNG cursor; Outages counts the hop's
	// hard-down events.
	Draws   uint64
	Outages uint64
	// Health is the hop's ladder state.
	Health HopHealth
}

// TierState is a TierRuntime's durable state: everything a crash would
// wipe.
type TierState struct {
	ClockSeconds float64
	Steady       partition.Tier
	Hops         []TierHopState
	// Collapses / Recoveries / Rollbacks are the ladder's counters.
	Collapses, Recoveries, Rollbacks int
}

// Snapshot captures the runtime's durable state.
func (rt *TierRuntime) Snapshot() TierState {
	ls := rt.ladder.Snapshot()
	st := TierState{
		ClockSeconds: rt.opt.Clock.Now(),
		Steady:       rt.steady,
		Hops:         make([]TierHopState, len(rt.opt.Hops)),
		Collapses:    ls.Collapses, Recoveries: ls.Recoveries, Rollbacks: ls.Rollbacks,
	}
	for h, hop := range rt.opt.Hops {
		st.Hops[h] = TierHopState{
			Breaker: hop.Breaker.Snapshot(), Draws: hop.Link.Draws(),
			Outages: rt.outages[h], Health: ls.Hops[h],
		}
	}
	return st
}

// Validate checks a snapshot without applying it: the clock, the
// steady cap, the ladder counters, and every hop's breaker, RNG cursor,
// health and probe schedule.
func (st TierState) Validate() error {
	if err := checkSeconds("clock", st.ClockSeconds); err != nil {
		return err
	}
	if nh := len(st.Hops); st.Steady < 0 || int(st.Steady) > nh {
		return fmt.Errorf("adaptive: snapshot steady cap %d outside [0,%d]", st.Steady, nh)
	}
	if st.Collapses < 0 || st.Recoveries < 0 || st.Rollbacks < 0 {
		return fmt.Errorf("adaptive: negative ladder counters %d/%d/%d", st.Collapses, st.Recoveries, st.Rollbacks)
	}
	for h, hs := range st.Hops {
		if err := checkLink(hs.Breaker, hs.Draws); err != nil {
			return fmt.Errorf("adaptive: hop %d: %w", h, err)
		}
		if err := hs.Health.validate(); err != nil {
			return fmt.Errorf("adaptive: hop %d: %w", h, err)
		}
	}
	return nil
}

// Restore rewinds the runtime onto a snapshot of the same chain: every
// link's RNG is fast-forwarded to its cursor, the breakers and the
// ladder resume their state, and the clock jumps to the snapshot time.
// The snapshot is checked before any of it is applied, so a rejected
// one leaves the runtime as it was, and the parts cannot reject what
// Validate passed.
func (rt *TierRuntime) Restore(st TierState) error {
	nh := len(rt.opt.Hops)
	if len(st.Hops) != nh {
		return fmt.Errorf("adaptive: snapshot covers %d hops, chain has %d", len(st.Hops), nh)
	}
	if err := st.Validate(); err != nil {
		return err
	}
	ls := LadderState{
		Hops:      make([]HopHealth, nh),
		Collapses: st.Collapses, Recoveries: st.Recoveries, Rollbacks: st.Rollbacks,
	}
	for h, hs := range st.Hops {
		_ = rt.opt.Hops[h].Breaker.Restore(hs.Breaker)
		_ = rt.opt.Hops[h].Link.RestoreDraws(hs.Draws)
		ls.Hops[h] = hs.Health
		rt.outages[h] = hs.Outages
	}
	_ = rt.ladder.Restore(ls)
	rt.opt.Clock.Restore(st.ClockSeconds)
	rt.steady = st.Steady
	return nil
}
