package adaptive

import (
	"fmt"

	"xpro/internal/partition"
)

// The tier-collapse ladder is the k-way degradation controller: it
// watches per-hop outage evidence from the tiered walk and decides
// which rung of the ladder
//
//	full k-tier → collapsed (k−1)-tier → … → sensor-local
//
// the runtime should serve from. A hop that keeps hard-failing is
// declared dead after FailThreshold consecutive outage events
// (hysteresis: one bad event never collapses a tier), capping the
// placement below it; a dead hop is probed on a capped-exponential
// schedule, and only RecoverySuccesses consecutive clean probes
// climb back up, with a probation window after revival during which a
// single failure rolls straight back down. All state is deterministic
// and snapshot/restorable, so crash–recover replays the identical
// ladder trajectory.

// CollapseConfig shapes the ladder's hysteresis and probation.
type CollapseConfig struct {
	// FailThreshold is how many consecutive outage events on a hop
	// declare it dead (minimum 1).
	FailThreshold int
	// ProbeAfterSeconds is the first probe delay after a collapse.
	ProbeAfterSeconds float64
	// ProbeBackoffFactor multiplies the probe interval after each failed
	// probe; MaxProbeSeconds caps it.
	ProbeBackoffFactor float64
	MaxProbeSeconds    float64
	// RecoverySuccesses is how many consecutive clean probes revive a
	// dead hop (minimum 1 — probation guards against a lucky single
	// probe anyway).
	RecoverySuccesses int
	// ProbationEvents is the post-revival window (in exercised events)
	// during which one failure re-collapses the hop immediately.
	ProbationEvents int
}

// DefaultCollapseConfig mirrors the 2-end controller's temperament:
// slow to collapse, slower to trust a revival.
func DefaultCollapseConfig() CollapseConfig {
	return CollapseConfig{
		FailThreshold:      3,
		ProbeAfterSeconds:  2,
		ProbeBackoffFactor: 2,
		MaxProbeSeconds:    30,
		RecoverySuccesses:  2,
		ProbationEvents:    5,
	}
}

func (c CollapseConfig) withDefaults() CollapseConfig {
	d := DefaultCollapseConfig()
	if c.FailThreshold < 1 {
		c.FailThreshold = d.FailThreshold
	}
	if c.ProbeAfterSeconds <= 0 {
		c.ProbeAfterSeconds = d.ProbeAfterSeconds
	}
	if c.ProbeBackoffFactor < 1 {
		c.ProbeBackoffFactor = d.ProbeBackoffFactor
	}
	if c.MaxProbeSeconds <= 0 {
		c.MaxProbeSeconds = d.MaxProbeSeconds
	}
	if c.RecoverySuccesses < 1 {
		c.RecoverySuccesses = d.RecoverySuccesses
	}
	if c.ProbationEvents < 0 {
		c.ProbationEvents = d.ProbationEvents
	}
	return c
}

// HopHealth is one hop's ladder state.
type HopHealth struct {
	// Failures / Successes count consecutive outage / clean events.
	Failures  int
	Successes int
	// Dead marks the hop collapsed out of the serving placement.
	Dead bool
	// NextProbeAt / ProbeInterval schedule the next revival probe.
	NextProbeAt   float64
	ProbeInterval float64
	// Probation counts down the post-revival grace events.
	Probation int
}

// CollapseLadder tracks every hop's health and derives the serving
// rung. It is not goroutine-safe; the serving loop owns it.
type CollapseLadder struct {
	cfg  CollapseConfig
	hops []HopHealth

	collapses  int
	recoveries int
	rollbacks  int
}

// NewCollapseLadder builds a ladder for a chain crossing nHops hops.
func NewCollapseLadder(nHops int, cfg CollapseConfig) (*CollapseLadder, error) {
	if nHops < 1 {
		return nil, fmt.Errorf("adaptive: collapse ladder needs at least 1 hop, got %d", nHops)
	}
	return &CollapseLadder{cfg: cfg.withDefaults(), hops: make([]HopHealth, nHops)}, nil
}

// Health returns a copy of one hop's state.
func (l *CollapseLadder) Health(hop int) HopHealth { return l.hops[hop] }

// Cap returns the highest tier the serving placement may use: the
// lowest dead hop's index (hop h dead ⇒ tiers ≤ h), or the full chain
// when every hop is live.
func (l *CollapseLadder) Cap() partition.Tier {
	for h := range l.hops {
		if l.hops[h].Dead {
			return partition.Tier(h)
		}
	}
	return partition.Tier(len(l.hops))
}

// EventCap returns the tier cap to serve THIS event under, letting at
// most one due probe through: when the lowest dead hop's probe timer
// has expired, the cap extends past it (to the next dead hop above, or
// the full chain) so the event exercises the hop and its outcome
// settles the probe. The bool reports whether this event is a probe.
func (l *CollapseLadder) EventCap(now float64) (partition.Tier, bool) {
	probing := false
	for h := range l.hops {
		hs := &l.hops[h]
		if !hs.Dead {
			continue
		}
		if !probing && now >= hs.NextProbeAt {
			probing = true
			continue
		}
		return partition.Tier(h), probing
	}
	return partition.Tier(len(l.hops)), probing
}

// Observe feeds one exercised hop's outcome into the ladder: outage is
// true when the event saw the hop hard-down (outage window, hub storm
// or open breaker). Hops the event never attempted must NOT be
// observed — absence of traffic is not evidence of health.
func (l *CollapseLadder) Observe(hop int, outage bool, now float64) {
	h := &l.hops[hop]
	if outage {
		h.Successes = 0
		h.Failures++
		switch {
		case h.Dead:
			// Failed probe: back off the next one.
			h.ProbeInterval *= l.cfg.ProbeBackoffFactor
			if h.ProbeInterval > l.cfg.MaxProbeSeconds {
				h.ProbeInterval = l.cfg.MaxProbeSeconds
			}
			h.NextProbeAt = now + h.ProbeInterval
		case h.Probation > 0:
			// Probation rollback: the revival did not hold.
			h.Dead = true
			h.Probation = 0
			l.rollbacks++
			l.collapses++
			h.ProbeInterval = l.cfg.ProbeAfterSeconds * l.cfg.ProbeBackoffFactor
			if h.ProbeInterval > l.cfg.MaxProbeSeconds {
				h.ProbeInterval = l.cfg.MaxProbeSeconds
			}
			h.NextProbeAt = now + h.ProbeInterval
		case h.Failures >= l.cfg.FailThreshold:
			h.Dead = true
			l.collapses++
			h.ProbeInterval = l.cfg.ProbeAfterSeconds
			h.NextProbeAt = now + h.ProbeInterval
		}
		return
	}
	h.Failures = 0
	if h.Dead {
		h.Successes++
		if h.Successes >= l.cfg.RecoverySuccesses {
			h.Dead = false
			h.Successes = 0
			h.Probation = l.cfg.ProbationEvents
			l.recoveries++
		}
		return
	}
	if h.Probation > 0 {
		h.Probation--
	}
}

// LadderState is the ladder's durable snapshot.
type LadderState struct {
	Hops                             []HopHealth
	Collapses, Recoveries, Rollbacks int
}

// Snapshot captures the ladder's full state for checkpointing.
func (l *CollapseLadder) Snapshot() LadderState {
	return LadderState{
		Hops:      append([]HopHealth(nil), l.hops...),
		Collapses: l.collapses, Recoveries: l.recoveries, Rollbacks: l.rollbacks,
	}
}

// Restore rewinds the ladder to a snapshot. The hop count must match
// the chain the ladder was built for.
func (l *CollapseLadder) Restore(s LadderState) error {
	if len(s.Hops) != len(l.hops) {
		return fmt.Errorf("adaptive: snapshot covers %d hops, ladder has %d", len(s.Hops), len(l.hops))
	}
	copy(l.hops, s.Hops)
	l.collapses, l.recoveries, l.rollbacks = s.Collapses, s.Recoveries, s.Rollbacks
	return nil
}
