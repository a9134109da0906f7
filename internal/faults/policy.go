package faults

import (
	"fmt"
	"math"
)

// Backoff is a capped exponential retry schedule in modeled seconds:
// attempt n (0-based retry index) waits Base·Factor^n, clamped to Max.
// Waits are deterministic (no jitter): the runtime replays seeded runs
// bit-identically, and the modeled clock has no thundering herd to
// spread.
type Backoff struct {
	Base   float64
	Max    float64
	Factor float64
}

// Delay returns the wait before retry attempt n (0-based).
func (b Backoff) Delay(n int) float64 {
	if b.Base <= 0 {
		return 0
	}
	f := b.Factor
	if f < 1 {
		f = 2
	}
	d := b.Base * math.Pow(f, float64(n))
	if b.Max > 0 && d > b.Max {
		d = b.Max
	}
	return d
}

// Validate rejects NaN or negative backoff parameters.
func (b Backoff) Validate() error {
	for _, v := range []struct {
		name string
		val  float64
	}{{"base", b.Base}, {"max", b.Max}, {"factor", b.Factor}} {
		if math.IsNaN(v.val) || math.IsInf(v.val, 0) || v.val < 0 {
			return fmt.Errorf("faults: backoff %s %v must be finite and non-negative", v.name, v.val)
		}
	}
	return nil
}

// BreakerState is the circuit breaker's tri-state.
type BreakerState int

const (
	// BreakerClosed passes traffic and counts consecutive failures.
	BreakerClosed BreakerState = iota
	// BreakerHalfOpen admits one probe send after the cooldown.
	BreakerHalfOpen
	// BreakerOpen fails fast: no cross-end traffic is attempted.
	BreakerOpen
)

func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerHalfOpen:
		return "half-open"
	case BreakerOpen:
		return "open"
	default:
		return fmt.Sprintf("BreakerState(%d)", int(s))
	}
}

// Breaker is a circuit breaker over cross-end transfers, clocked by
// modeled time. It trips open after Threshold consecutive final
// failures (a transfer that exhausted its retries), fails fast while
// open, and half-opens after Cooldown modeled seconds to admit one
// probe; a successful probe closes it, a failed probe reopens it.
//
// Breaker is not safe for concurrent use; the engine serializes events
// through it (the modeled clock is single-threaded anyway).
type Breaker struct {
	Threshold int
	Cooldown  float64
	// OnTransition, when set, observes every state change.
	OnTransition func(from, to BreakerState)

	clock    *Clock
	state    BreakerState
	failures int
	openedAt float64
}

// NewBreaker builds a closed breaker. threshold < 1 disables tripping.
func NewBreaker(threshold int, cooldown float64, clock *Clock) (*Breaker, error) {
	if clock == nil {
		return nil, fmt.Errorf("faults: NewBreaker needs a clock")
	}
	if math.IsNaN(cooldown) || cooldown < 0 {
		return nil, fmt.Errorf("faults: breaker cooldown %v must be non-negative", cooldown)
	}
	return &Breaker{Threshold: threshold, Cooldown: cooldown, clock: clock}, nil
}

func (b *Breaker) transition(to BreakerState) {
	if b.state == to {
		return
	}
	from := b.state
	b.state = to
	if b.OnTransition != nil {
		b.OnTransition(from, to)
	}
}

// State returns the breaker's effective state at the clock's current
// time, performing the open → half-open transition when the cooldown
// has elapsed.
func (b *Breaker) State() BreakerState {
	if b.state == BreakerOpen && b.clock.Now() >= b.openedAt+b.Cooldown {
		b.transition(BreakerHalfOpen)
	}
	return b.state
}

// Allow reports whether cross-end traffic may be attempted now: true
// when closed or half-open (the half-open attempt is the probe).
func (b *Breaker) Allow() bool { return b.State() != BreakerOpen }

// RecordSuccess notes a successful cross-end transfer: it resets the
// failure streak and closes a half-open breaker.
func (b *Breaker) RecordSuccess() {
	b.failures = 0
	if b.State() == BreakerHalfOpen {
		b.transition(BreakerClosed)
	}
}

// RecordFailure notes a final transfer failure (retries exhausted). A
// half-open probe failure reopens immediately; a closed breaker trips
// once the streak reaches Threshold.
func (b *Breaker) RecordFailure() {
	b.failures++
	switch b.State() {
	case BreakerHalfOpen:
		b.openedAt = b.clock.Now()
		b.transition(BreakerOpen)
	case BreakerClosed:
		if b.Threshold > 0 && b.failures >= b.Threshold {
			b.openedAt = b.clock.Now()
			b.transition(BreakerOpen)
		}
	}
}

// Failures returns the current consecutive-failure streak.
func (b *Breaker) Failures() int { return b.failures }

// BreakerSnapshot is the serializable state of a Breaker: everything a
// crash would wipe. OpenedAt is meaningful only while State is
// BreakerOpen.
type BreakerSnapshot struct {
	State    BreakerState
	Failures int
	OpenedAt float64
}

// Snapshot captures the breaker's durable state. The open → half-open
// transition is NOT forced first: the snapshot records the raw state,
// and a restore at a later clock time performs the lazy transition
// exactly as the uninterrupted breaker would have.
func (b *Breaker) Snapshot() BreakerSnapshot {
	return BreakerSnapshot{State: b.state, Failures: b.failures, OpenedAt: b.openedAt}
}

// Validate rejects a snapshot no breaker could have taken: an unknown
// state, a negative failure streak, or an opened-at that is not a
// finite, non-negative time.
func (s BreakerSnapshot) Validate() error {
	switch s.State {
	case BreakerClosed, BreakerHalfOpen, BreakerOpen:
	default:
		return fmt.Errorf("faults: breaker snapshot has invalid state %d", int(s.State))
	}
	if s.Failures < 0 {
		return fmt.Errorf("faults: breaker snapshot has negative failure streak %d", s.Failures)
	}
	if math.IsNaN(s.OpenedAt) || math.IsInf(s.OpenedAt, 0) || s.OpenedAt < 0 {
		return fmt.Errorf("faults: breaker snapshot opened-at %v must be finite and non-negative", s.OpenedAt)
	}
	return nil
}

// Restore rewinds the breaker to a snapshot. The state change (if any)
// fires OnTransition, so gauges and estimators tracking the breaker
// stay truthful through a recovery. Invalid snapshots are rejected.
func (b *Breaker) Restore(s BreakerSnapshot) error {
	if err := s.Validate(); err != nil {
		return err
	}
	b.failures = s.Failures
	b.openedAt = s.OpenedAt
	b.transition(s.State)
	return nil
}

// Policy bundles the engine's resilience knobs: how long one event may
// take (modeled), how transfers retry, and when the breaker trips.
type Policy struct {
	// Deadline is the per-event modeled time budget in seconds. When
	// the budget is exhausted mid-event, remaining cross-end transfers
	// are abandoned and the event degrades.
	Deadline float64
	// MaxRetries caps the resilience layer's re-sends per transfer
	// (each re-send is itself a full link-layer attempt sequence).
	MaxRetries int
	// Backoff spaces the re-sends.
	Backoff Backoff
	// BreakerThreshold trips the circuit breaker after that many
	// consecutive final transfer failures; 0 disables the breaker.
	BreakerThreshold int
	// BreakerCooldown is the open → half-open delay in modeled seconds.
	BreakerCooldown float64
	// MinVotes is the minimum number of base-classifier scores required
	// to fuse a partial result (default 1).
	MinVotes int
}

// DefaultPolicy returns the engine's default resilience policy: a
// 50 ms modeled deadline, two retries with 1 ms → 8 ms backoff, and a
// breaker tripping after 3 consecutive drops with a 5 s cooldown.
func DefaultPolicy() Policy {
	return Policy{
		Deadline:         50e-3,
		MaxRetries:       2,
		Backoff:          Backoff{Base: 1e-3, Max: 8e-3, Factor: 2},
		BreakerThreshold: 3,
		BreakerCooldown:  5,
		MinVotes:         1,
	}
}

// Validate rejects NaN, infinite or negative policy parameters.
func (p Policy) Validate() error {
	if math.IsNaN(p.Deadline) || math.IsInf(p.Deadline, 0) || p.Deadline < 0 {
		return fmt.Errorf("faults: policy deadline %v must be finite and non-negative", p.Deadline)
	}
	if p.MaxRetries < 0 {
		return fmt.Errorf("faults: policy retry limit %d must be non-negative", p.MaxRetries)
	}
	if err := p.Backoff.Validate(); err != nil {
		return err
	}
	if p.BreakerThreshold < 0 {
		return fmt.Errorf("faults: breaker threshold %d must be non-negative", p.BreakerThreshold)
	}
	if math.IsNaN(p.BreakerCooldown) || math.IsInf(p.BreakerCooldown, 0) || p.BreakerCooldown < 0 {
		return fmt.Errorf("faults: breaker cooldown %v must be finite and non-negative", p.BreakerCooldown)
	}
	if p.MinVotes < 0 {
		return fmt.Errorf("faults: minimum vote count %d must be non-negative", p.MinVotes)
	}
	return nil
}
