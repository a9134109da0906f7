package adaptive

import (
	"errors"
	"fmt"
	"math"

	"xpro/internal/biosig"
	"xpro/internal/faults"
	"xpro/internal/partition"
	"xpro/internal/wireless"
	"xpro/internal/xsystem"
)

// EndRuntime is the 2-end serving runtime, the degradation ladder
// over one seeded fallible link and circuit breaker on a modeled
// clock: the cross-end cut is attempted unless the runtime is browned
// out or the breaker is open, and an event it does not serve falls to
// the in-sensor fallback cut (the all-sensor extreme of the same s-t
// graph), or to the software ensemble on the aggregator while the
// sensor's cell array is browned out. It optionally drives the re-cut
// controller. It is not goroutine-safe: its owner serializes events.
type EndRuntime struct {
	// opt carries every attempt's link, plan, clock, policy, breaker
	// and framing; fbOpt the fallback cut's policy alone.
	opt, fbOpt xsystem.ResilientOptions
	link       *faults.Link
	fallback   *xsystem.System
	period     float64
	failFast   bool
	ctrl       *Controller
	// evidence is the current event's attempt (zero when none ran).
	evidence xsystem.Outcome
}

// EndConfig arms an EndRuntime.
type EndConfig struct {
	Policy faults.Policy
	// Plan is the fault schedule (nil: ambient loss only). BaseLoss is
	// the link's ambient loss, LinkRetries its link-layer per-packet
	// retransmission budget and Seed its random stream.
	Plan        *faults.Plan
	BaseLoss    float64
	LinkRetries int
	Seed        int64
	// Framing, when set, arms per-frame integrity on the link.
	Framing *faults.Framing
	// Period is the modeled time Tick advances the clock by; FailFast
	// returns an event's failure instead of falling back; Controller,
	// when set, is the re-cut controller Fold drives.
	Period     float64
	FailFast   bool
	Controller *Controller
}

// NewEndRuntime arms sys's link: the clock, the link, the breaker and
// the fallback cut, with the controller's estimator wired to them.
func NewEndRuntime(sys *xsystem.System, cfg EndConfig) (*EndRuntime, error) {
	if sys == nil {
		return nil, errors.New("adaptive: nil system")
	}
	if err := cfg.Policy.Validate(); err != nil {
		return nil, err
	}
	clock := &faults.Clock{}
	link, err := faults.NewLink(sys.Link, cfg.Plan, clock, cfg.BaseLoss, cfg.LinkRetries, cfg.Seed)
	if err != nil {
		return nil, err
	}
	breaker, err := faults.NewBreaker(cfg.Policy.BreakerThreshold, cfg.Policy.BreakerCooldown, clock)
	if err != nil {
		return nil, err
	}
	fb, err := sys.WithPlacement(partition.InSensor(sys.Graph))
	if err != nil {
		return nil, fmt.Errorf("adaptive: building fallback cut: %w", err)
	}
	if c := cfg.Controller; c != nil {
		link.Observer = func(tr wireless.Transfer, retransmissions int, serr error) {
			c.Estimator().ObserveSendStats(tr, retransmissions, serr)
		}
		breaker.OnTransition = func(_, to faults.BreakerState) { c.Estimator().ObserveBreaker(to) }
	}
	return &EndRuntime{
		opt: xsystem.ResilientOptions{Transport: link, Plan: cfg.Plan, Clock: clock, Policy: cfg.Policy,
			Breaker: breaker, Integrity: cfg.Framing},
		fbOpt: xsystem.ResilientOptions{Policy: cfg.Policy},
		link:  link, fallback: fb, period: cfg.Period, failFast: cfg.FailFast, ctrl: cfg.Controller,
	}, nil
}

// Clock, Breaker, Fallback and Controller expose the runtime's parts;
// Tick advances the clock by one event period.
func (rt *EndRuntime) Clock() *faults.Clock      { return rt.opt.Clock }
func (rt *EndRuntime) Breaker() *faults.Breaker  { return rt.opt.Breaker }
func (rt *EndRuntime) Fallback() *xsystem.System { return rt.fallback }
func (rt *EndRuntime) Controller() *Controller   { return rt.ctrl }
func (rt *EndRuntime) Tick()                     { rt.opt.Clock.Advance(rt.period) }

// EndRung is the rung of the 2-end ladder that served an event: the
// attempt delivering every payload, fusing only the base scores that
// arrived, or computing the label on the sensor without delivering
// it; then the in-sensor fallback cut and the software ensemble.
type EndRung int

const (
	RungFull EndRung = iota
	RungPartial
	RungSensorLocal
	RungFallbackSensor
	RungFallbackSoftware
)

// EndEvent is one event served by an EndRuntime. A fallback event's
// Outcome carries the serving rung's label and votes, and the failed
// attempt's retries, lost transfers and deadline flag. Its time and
// sensor energy start from the attempt's (0 when none ran). The sensor
// fallback takes the in-sensor cut's time when the attempt spent none,
// and adds the cut's sensor energy, less the sensing when the attempt
// sensed the segment. The software fallback adds the raw segment's air
// time and transmit energy over every try, the ensemble's compute time
// on the aggregator, and the sensing when no attempt sensed the segment.
type EndEvent struct {
	xsystem.Outcome
	Rung EndRung
}

// The ladder's own failures: a sensor brownout whose raw segment could
// not cross, and an in-sensor fallback cut that failed too.
var (
	ErrNoPath   = errors.New("sensor browned out and link unavailable: no path to a classification")
	ErrFallback = errors.New("fallback cut failed")
)

// Serve runs one event on the active cross-end cut sys: the ambient
// fault state, the fallback when browned out or when the breaker is
// open, the attempt, and the fallback and bill merge of an attempt
// that produced no label. A FailFast runtime returns the attempt's
// *xsystem.NoResultError, which carries its bill, or a
// *faults.ErrLinkDown while the breaker is open. Any other error is a
// genuine pipeline failure, or ErrNoPath or ErrFallback, which come
// with the failed rung and the event's bill.
func (rt *EndRuntime) Serve(sys *xsystem.System, seg biosig.Segment, browned bool) (EndEvent, error) {
	now := rt.opt.Clock.Now()
	state := rt.opt.Plan.At(now)
	rt.evidence = xsystem.Outcome{}
	if rt.ctrl != nil {
		// What the modem sees this instant, whether or not the active
		// cut puts payloads on the air: a controller parked on the
		// in-sensor cut still notices the channel recover.
		rt.ctrl.Estimator().ObserveState(state)
	}
	if browned {
		return rt.fallBack(seg, state, xsystem.Outcome{})
	}
	if !rt.opt.Breaker.Allow() {
		if rt.failFast {
			return EndEvent{}, &faults.ErrLinkDown{At: now, Until: rt.opt.Plan.Until(now, faults.LinkOutage)}
		}
		return rt.fallBack(seg, state, xsystem.Outcome{})
	}
	out, err := sys.ClassifyOver(seg, &rt.opt)
	rt.evidence = out
	if err != nil {
		var nores *xsystem.NoResultError
		if rt.failFast || !errors.As(err, &nores) {
			return EndEvent{}, err
		}
		return rt.fallBack(seg, state, nores.Outcome)
	}
	switch {
	case out.Complete:
		return EndEvent{Outcome: out}, nil
	case !out.Delivered:
		return EndEvent{Outcome: out, Rung: RungSensorLocal}, nil
	}
	return EndEvent{Outcome: out, Rung: RungPartial}, nil
}

// fallBack serves an event the cross-end cut did not; attempt is the
// failed attempt's bill (zero when none ran). An event no rung can
// serve returns its bill with ErrNoPath or ErrFallback.
func (rt *EndRuntime) fallBack(seg biosig.Segment, state faults.State, attempt xsystem.Outcome) (EndEvent, error) {
	ev := EndEvent{Outcome: xsystem.Outcome{
		Retries: attempt.Retries, LostTransfers: attempt.LostTransfers,
		DeadlineExceeded: attempt.DeadlineExceeded, SpentSeconds: attempt.SpentSeconds,
		SensorEnergy: attempt.SensorEnergy,
	}, Rung: RungFallbackSensor}
	if state.Brownout {
		// Sensing survives a brownout: stream the raw segment under the
		// retry policy, every try draining the battery and taking its
		// air time, and classify in software on the aggregator, which
		// takes the in-aggregator engine's back-end time.
		ev.Rung = RungFallbackSoftware
		sent := false
		for try := 0; try <= rt.opt.Policy.MaxRetries && !sent; try++ {
			tr, err := rt.link.Send(rt.fallback.Graph.SourceBits)
			ev.SensorEnergy += tr.TxEnergy
			ev.SpentSeconds += tr.Delay
			sent = err == nil
		}
		if attempt.SensorEnergy == 0 {
			ev.SensorEnergy += rt.fallback.Problem().SensingEnergy
		}
		if !sent {
			return ev, ErrNoPath
		}
		label, err := rt.fallback.Ens.Predict(seg)
		if err != nil {
			return EndEvent{}, err
		}
		ev.SpentSeconds += rt.fallback.DelayOf(partition.InAggregator(rt.fallback.Graph)).BackEnd
		ev.Label = label
		return ev, nil
	}
	out, err := rt.fallback.ClassifyOver(seg, &rt.fbOpt)
	if err != nil {
		return ev, fmt.Errorf("%w: %w", ErrFallback, err)
	}
	ev.Label = out.Label
	ev.VotesUsed, ev.VotesTotal = out.VotesUsed, out.VotesTotal
	if ev.SpentSeconds == 0 {
		ev.SpentSeconds = out.SpentSeconds
	}
	// An attempt that sensed the segment spares the fallback sensing it
	// again.
	fe := out.SensorEnergy
	if attempt.SensorEnergy > 0 {
		fe -= rt.fallback.Problem().SensingEnergy
	}
	if fe > 0 {
		ev.SensorEnergy += fe
	}
	return ev, nil
}

// Fold closes the adaptive loop on an event served without error,
// after Tick moved the clock past it: the controller folds the event's
// attempt as channel evidence with whether its served bill
// (deadlineExceeded, spentSeconds) blew the policy deadline, which may
// roll a cut on probation back, then re-prices the cut. Both decisions
// carry the clock's time and come back in that order for the caller to
// install (nil: no change; always nil without a controller).
func (rt *EndRuntime) Fold(deadlineExceeded bool, spentSeconds float64) (rollback, swap *Change) {
	if rt.ctrl == nil {
		return nil, nil
	}
	now := rt.opt.Clock.Now()
	rollback = rt.ctrl.ObserveEvent(now, rt.evidence, deadlineExceeded || spentSeconds > rt.opt.Policy.Deadline)
	swap, _ = rt.ctrl.Evaluate(now) // a failed re-pricing keeps the active cut
	return rollback, swap
}

// EndState is an EndRuntime's durable state: everything a crash would
// wipe. Draws is the link's RNG cursor; Estimator is zero without a
// controller.
type EndState struct {
	ClockSeconds float64
	Breaker      faults.BreakerSnapshot
	Draws        uint64
	Estimator    EstimatorState
}

// Snapshot captures the runtime's durable state.
func (rt *EndRuntime) Snapshot() EndState {
	st := EndState{ClockSeconds: rt.opt.Clock.Now(), Breaker: rt.opt.Breaker.Snapshot(), Draws: rt.link.Draws()}
	if rt.ctrl != nil {
		st.Estimator = rt.ctrl.Estimator().Snapshot()
	}
	return st
}

// Validate checks a snapshot without applying it: the clock, the
// breaker and RNG cursor, and the estimate.
func (st EndState) Validate() error {
	if err := checkSeconds("clock", st.ClockSeconds); err != nil {
		return err
	}
	if err := checkLink(st.Breaker, st.Draws); err != nil {
		return err
	}
	// Restoring onto a throwaway estimator checks the estimate without
	// touching the live one.
	var scratch Estimator
	return scratch.Restore(st.Estimator)
}

// checkLink checks the durable pair of one seeded link, which EndState
// holds once and TierState once per hop: its breaker snapshot and its
// RNG cursor.
func checkLink(b faults.BreakerSnapshot, draws uint64) error {
	if err := b.Validate(); err != nil {
		return err
	}
	if draws > faults.MaxRNGDraws {
		return fmt.Errorf("adaptive: RNG cursor %d exceeds the restorable maximum", draws)
	}
	return nil
}

// checkSeconds checks a modeled time or interval of a snapshot.
func checkSeconds(name string, v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
		return fmt.Errorf("adaptive: %s %v must be finite and non-negative", name, v)
	}
	return nil
}

// Restore rewinds the runtime onto a snapshot: the clock jumps to the
// snapshot time, the link's RNG is fast-forwarded to its cursor, and
// the breaker and the estimator resume. The snapshot is checked before
// any of it is applied, so a rejected one leaves the runtime as it
// was, and the parts cannot reject what Validate passed.
func (rt *EndRuntime) Restore(st EndState) error {
	if err := st.Validate(); err != nil {
		return err
	}
	rt.opt.Clock.Restore(st.ClockSeconds)
	_ = rt.link.RestoreDraws(st.Draws)
	_ = rt.opt.Breaker.Restore(st.Breaker)
	if rt.ctrl != nil {
		_ = rt.ctrl.Estimator().Restore(st.Estimator)
	}
	return nil
}
