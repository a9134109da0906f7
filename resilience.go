package xpro

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"xpro/internal/adaptive"
	"xpro/internal/biosig"
	"xpro/internal/eventsim"
	"xpro/internal/faults"
	"xpro/internal/partition"
	"xpro/internal/telemetry"
	"xpro/internal/topology"
	"xpro/internal/wireless"
	"xpro/internal/xsystem"
)

// This file is the fault-tolerance layer of the engine. The paper
// evaluates XPro over an infallible link; a deployed wearable sees
// loss bursts, hard outages, battery brownouts and aggregator stalls.
// An engine built with a Resilience policy (and optionally a FaultPlan
// injecting those faults) answers every Classify within a bounded
// modeled deadline: cross-end transfers retry with capped exponential
// backoff, a circuit breaker stops hammering a dead link, and when the
// cross-end cut cannot complete, the event degrades — fusing the base
// scores that arrived, or routing through the in-sensor fallback cut
// precomputed at New() time — instead of failing.

// DegradeMode says how a classification was produced.
type DegradeMode int

const (
	// ModeFull is the normal cross-end path: every payload arrived.
	ModeFull DegradeMode = iota
	// ModePartial fused only the base-classifier scores that arrived.
	ModePartial
	// ModeSuspectData is the signal-quality gate's rung: the event was
	// rejected on entry (flatline, rail saturation, non-finite samples)
	// or quarantined after classification because too many of its
	// crossed values had to be imputed. A quarantined Result still
	// carries the label the damaged data produced; the paired error is
	// ErrSuspectData.
	ModeSuspectData
	// ModeSensorLocal computed the full result on the sensor but could
	// not deliver it across the link.
	ModeSensorLocal
	// ModeFallbackSensor routed the event through the precomputed
	// in-sensor fallback cut (the all-sensor extreme of the same s-t
	// graph).
	ModeFallbackSensor
	// ModeFallbackSoftware ran the pure-software ensemble on the
	// aggregator from raw samples (used when the sensor's cell array is
	// browned out but sensing and the link survive).
	ModeFallbackSoftware
)

func (m DegradeMode) String() string {
	switch m {
	case ModeFull:
		return "full"
	case ModePartial:
		return "partial"
	case ModeSuspectData:
		return "suspect-data"
	case ModeSensorLocal:
		return "sensor-local"
	case ModeFallbackSensor:
		return "fallback-sensor"
	case ModeFallbackSoftware:
		return "fallback-software"
	default:
		return fmt.Sprintf("DegradeMode(%d)", int(m))
	}
}

// Result is one classification with its degradation provenance.
type Result struct {
	// Label is the predicted class (0 or 1).
	Label int
	// Degraded is true when the event did not complete the full
	// cross-end path (Mode != ModeFull).
	Degraded bool
	// Mode says which path produced the label.
	Mode DegradeMode
	// VotesUsed / VotesTotal count the base-classifier scores fused
	// (equal unless Mode is ModePartial).
	VotesUsed, VotesTotal int
	// Retries and LostTransfers report the link-layer struggle.
	Retries, LostTransfers int
	// DeadlineExceeded is true when the per-event budget ran out.
	DeadlineExceeded bool
	// SpentSeconds is the modeled time the event consumed.
	SpentSeconds float64
	// CorruptFrames counts frames the CRC rejected (and the link
	// retried); CorruptDelivered counts frames that arrived carrying
	// undetected bit errors (bare wire only — zero with framing on).
	CorruptFrames, CorruptDelivered int
	// ImputedValues counts crossed values reconstructed by the
	// imputation policy because their frames were lost.
	ImputedValues int
	// SensorEnergyJoules is the modeled sensor-node energy the event
	// actually consumed — retries, fallback compute and all — the value
	// the xpro_event_energy_joules quantile series observes.
	SensorEnergyJoules float64
	// Breaker is the circuit breaker state after the event
	// ("closed", "half-open", "open"); empty without a policy.
	Breaker string
}

// Resilience is the engine's fault-tolerance policy. Construct it with
// DefaultResilience and override fields; a zero field is taken
// literally (e.g. MaxRetries 0 really means no re-sends).
type Resilience struct {
	// DeadlineSeconds is the per-event modeled time budget; events
	// that exhaust it degrade instead of retrying further.
	DeadlineSeconds float64
	// MaxRetries caps re-sends per cross-end transfer.
	MaxRetries int
	// BackoffBaseSeconds / BackoffMaxSeconds shape the capped
	// exponential retry schedule (modeled seconds, factor 2).
	BackoffBaseSeconds float64
	BackoffMaxSeconds  float64
	// BreakerThreshold trips the circuit breaker after that many
	// consecutive dropped transfers (0 disables the breaker);
	// BreakerCooldownSeconds is the open → half-open probe delay.
	BreakerThreshold       int
	BreakerCooldownSeconds float64
	// MinVotes is the minimum base-classifier quorum for a partial
	// fusion (values below 1 mean 1).
	MinVotes int
	// BaseLoss is the ambient packet-loss probability of the link,
	// applied outside any fault-plan burst window.
	BaseLoss float64
	// FailFast returns transfer errors to the caller instead of
	// degrading — the pre-resilience behaviour, kept for callers that
	// prefer an error to a degraded answer.
	FailFast bool
}

// DefaultResilience returns the default policy: 50 ms modeled
// deadline, two retries backing off 1 ms → 8 ms, breaker tripping
// after 3 consecutive drops with a 5 s cooldown.
func DefaultResilience() *Resilience {
	p := faults.DefaultPolicy()
	return &Resilience{
		DeadlineSeconds:        p.Deadline,
		MaxRetries:             p.MaxRetries,
		BackoffBaseSeconds:     p.Backoff.Base,
		BackoffMaxSeconds:      p.Backoff.Max,
		BreakerThreshold:       p.BreakerThreshold,
		BreakerCooldownSeconds: p.BreakerCooldown,
		MinVotes:               p.MinVotes,
	}
}

func (r *Resilience) policy() faults.Policy {
	return faults.Policy{
		Deadline:         r.DeadlineSeconds,
		MaxRetries:       r.MaxRetries,
		Backoff:          faults.Backoff{Base: r.BackoffBaseSeconds, Max: r.BackoffMaxSeconds, Factor: 2},
		BreakerThreshold: r.BreakerThreshold,
		BreakerCooldown:  r.BreakerCooldownSeconds,
		MinVotes:         r.MinVotes,
	}
}

// FaultWindow is one fault interval on the engine's modeled timeline,
// half-open [StartSeconds, EndSeconds). Kind is "loss-burst",
// "link-outage", "brownout", "agg-stall", "bit-flip", "duplicate",
// "reorder", "node-crash", "reboot", "demand-surge" or "hub-storm";
// Loss applies to loss-burst windows only, Rate to the three corruption kinds
// (per-bit error probability for bit-flip, per-packet probability for
// duplicate and reorder) and to demand-surge windows (the arrival-
// rate multiplier ≥ 1; ignored by the classify pipeline, read by
// arrival processes such as the chaos soak harnesses). Overlapping same-kind windows merge: the max Loss/Rate
// over the covering windows applies. The two node-down kinds take the
// node off the air entirely — every Classify inside the window fails
// fast with ErrNodeDown and the node's volatile state is wiped; a
// "reboot" is ordered (a final checkpoint is flushed on the way down)
// while a "node-crash" is a hard power loss, and a crash overlapping a
// reboot is still a crash. A "hub-storm" is the hub-side flavor of
// "link-outage": the shared infrastructure node behind a hop goes dark,
// so every subject whose traffic transits that hub sees the identical
// dark period (see TierResilience.HubStorms for the correlated per-hop
// derivation on armed tier plans).
type FaultWindow struct {
	Kind         string
	StartSeconds float64
	EndSeconds   float64
	Loss         float64
	Rate         float64
}

// FaultPlan is a deterministic schedule of fault windows injected into
// an engine (Config.FaultPlan) or into the discrete-event simulator
// (SimulatedFaultyDelays). Seed drives every random draw the faults
// make, so one seed replays one identical run.
type FaultPlan struct {
	Windows []FaultWindow
	Seed    int64
}

// FaultScenarios lists the named scenarios FaultScenario accepts.
func FaultScenarios() []string { return faults.ScenarioNames() }

// FaultScenario builds a named fault plan ("outage", "bursty",
// "brownout", "stall", "flaky", "corrupt", "garbled") over a horizon
// of modeled seconds.
func FaultScenario(name string, seed int64, horizonSeconds float64) (*FaultPlan, error) {
	p, err := faults.Scenario(name, seed, horizonSeconds)
	if err != nil {
		return nil, err
	}
	out := &FaultPlan{Seed: seed}
	for _, w := range p.Windows {
		out.Windows = append(out.Windows, FaultWindow{
			Kind: w.Kind.String(), StartSeconds: w.Start, EndSeconds: w.End, Loss: w.Loss, Rate: w.Rate,
		})
	}
	return out, nil
}

var faultKinds = map[string]faults.Kind{
	"loss-burst":   faults.LossBurst,
	"link-outage":  faults.LinkOutage,
	"brownout":     faults.Brownout,
	"agg-stall":    faults.AggStall,
	"bit-flip":     faults.BitFlip,
	"duplicate":    faults.Duplicate,
	"reorder":      faults.Reorder,
	"node-crash":   faults.NodeCrash,
	"reboot":       faults.Reboot,
	"demand-surge": faults.DemandSurge,
	"hub-storm":    faults.HubStorm,
}

func (p *FaultPlan) internal() (*faults.Plan, error) {
	if p == nil {
		return nil, nil
	}
	out := &faults.Plan{}
	for i, w := range p.Windows {
		k, ok := faultKinds[w.Kind]
		if !ok {
			return nil, fmt.Errorf("xpro: fault window %d has unknown kind %q", i, w.Kind)
		}
		out.Windows = append(out.Windows, faults.Window{Kind: k, Start: w.StartSeconds, End: w.EndSeconds, Loss: w.Loss, Rate: w.Rate})
	}
	if err := out.Validate(); err != nil {
		return nil, err
	}
	return out, nil
}

// resilient is the engine's fault-tolerance state: the policy compiled
// to internal types, the virtual clock, the fault-injected transport,
// the circuit breaker and the precomputed in-sensor fallback cut.
// Events are serialized through mu — the modeled clock, the breaker
// and the link's random stream are single-threaded by design, so that
// a seeded run replays bit-identically.
type resilient struct {
	mu       sync.Mutex
	policy   faults.Policy
	plan     *faults.Plan
	clock    *faults.Clock
	breaker  *faults.Breaker
	link     *faults.Link
	fallback *xsystem.System
	period   float64
	failFast bool
	// integ is the data-plane integrity config (nil without
	// Config.Integrity); framing is its compiled wire half.
	integ   *Integrity
	framing *faults.Framing
	// ctrl is the adaptive repartitioning controller (nil without
	// Config.Adaptive); lastOut is the most recent cross-end attempt's
	// transfer record, the channel evidence ObserveEvent folds.
	ctrl    *adaptive.Controller
	lastOut xsystem.Outcome
	// lastState is the fault-plan state seen by the previous event;
	// crossing a window edge bumps the engine's serving epoch so
	// memoized network views rebuild.
	lastState faults.State

	// The crash-tolerance layer (recovery.go). seq numbers every event
	// applied to the timeline; the energy/quarantine/imputation ledgers
	// and the crash bookkeeping make up the durable SubjectState. store
	// (when attached via EnableRecovery) receives one journal record per
	// applied event; lastCkpt is the modeled time of the last checkpoint
	// (-1: never). down marks the node inside a node-crash/reboot
	// window; seed re-arms the link RNG on restore.
	seq         uint64
	energyJ     float64
	quarantined uint64
	imputed     uint64
	crashes     uint64
	recoveries  uint64
	down        bool
	store       *DurableStore
	lastCkpt    float64
	seed        int64

	// browned is set by the fleet brownout controller: while true,
	// every event routes straight to the degradation ladder's cheap
	// rung (the in-sensor fallback cut, or the software fallback
	// during a battery brownout) without attempting the cross-end
	// path — trading answer quality for service time so serving
	// capacity rises under sustained overload. Atomic because the
	// fleet flips it from worker goroutines while other events hold
	// mu.
	browned atomic.Bool
}

// buildResilient assembles the fault-tolerance layer during engine
// construction. Returns nil when the config requests none.
func buildResilient(cfg Config, sys *xsystem.System, g *topology.Graph,
	obs *Observer) (*resilient, error) {
	if cfg.Resilience == nil && cfg.FaultPlan == nil && cfg.Adaptive == nil && cfg.Integrity == nil {
		return nil, nil
	}
	rc := cfg.Resilience
	if rc == nil {
		rc = DefaultResilience()
	}
	pol := rc.policy()
	if err := pol.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Integrity.validate(); err != nil {
		return nil, err
	}
	plan, err := cfg.FaultPlan.internal()
	if err != nil {
		return nil, err
	}
	clock := &faults.Clock{}
	var seed int64
	if cfg.FaultPlan != nil {
		seed = cfg.FaultPlan.Seed
	}
	link, err := faults.NewLink(sys.Link, plan, clock, rc.BaseLoss, 0, seed)
	if err != nil {
		return nil, err
	}
	breaker, err := faults.NewBreaker(pol.BreakerThreshold, pol.BreakerCooldown, clock)
	if err != nil {
		return nil, err
	}
	// The adaptive re-cut controller: same reference system, same delay
	// constraint T_XPro = min(T_F, T_B) the static generator used. Its
	// estimator taps every channel signal the layer already produces —
	// the link's per-send statistics here, breaker transitions below,
	// fault-window state and outcomes per event in classify.
	var ctrl *adaptive.Controller
	if cfg.Adaptive != nil {
		limit := sys.DelayOf(partition.InSensor(g)).Total()
		if d := sys.DelayOf(partition.InAggregator(g)).Total(); d < limit {
			limit = d
		}
		ctrl, err = adaptive.NewController(cfg.Adaptive.internal(), sys, limit, obs.reg)
		if err != nil {
			return nil, err
		}
		link.Observer = func(tr wireless.Transfer, retransmissions int, serr error) {
			ctrl.Estimator().ObserveSendStats(tr, retransmissions, serr)
		}
	}
	stateGauge := obs.reg.Gauge("xpro_breaker_state",
		"Circuit breaker state: 0 closed, 1 half-open, 2 open.")
	transitions := obs.reg.Counter("xpro_breaker_transitions_total",
		"Circuit breaker state changes.")
	stateGauge.Set(float64(faults.BreakerClosed))
	breaker.OnTransition = func(from, to faults.BreakerState) {
		stateGauge.Set(float64(to))
		transitions.Inc()
		if ctrl != nil {
			ctrl.Estimator().ObserveBreaker(to)
		}
	}
	// The all-sensor extreme of the same s-t graph: the fallback cut
	// events route through when the cross-end path cannot complete. A
	// sibling of the engine's system, it shares its characterization,
	// pricing problem and compiled graph.
	fb, err := sys.WithPlacement(partition.InSensor(g))
	if err != nil {
		return nil, fmt.Errorf("xpro: building fallback cut: %w", err)
	}
	period := 0.0
	if ev := sys.EventsPerSecond(); ev > 0 {
		period = 1 / ev
	}
	return &resilient{
		policy: pol, plan: plan, clock: clock, breaker: breaker, link: link,
		fallback: fb, period: period, failFast: rc.FailFast, ctrl: ctrl,
		integ: cfg.Integrity, framing: cfg.Integrity.framing(),
		seed: seed, lastCkpt: -1,
	}, nil
}

// classify runs one event through the resilience ladder:
//
//  1. breaker open → skip the link entirely, fallback cut;
//  2. cross-end attempt with retry/backoff under the deadline budget;
//  3. partial fusion when only some base scores arrived;
//  4. fallback: in-sensor cut (link faults) or software ensemble
//     (sensor brownout);
//  5. FailFast policies surface the error instead of steps 3–4.
func (r *resilient) classify(e *Engine, seg biosig.Segment) (Result, error) {
	return r.classifyCtx(context.Background(), e, seg)
}

// classifyCtx is classify honoring a context: a canceled or expired
// ctx abandons the event with a typed ErrCanceled error BEFORE it
// touches the modeled timeline — the clock does not advance, the
// breaker records nothing, the link RNG stays untouched — so canceled
// events are invisible to seeded replay and never trip the breaker.
func (r *resilient) classifyCtx(ctx context.Context, e *Engine, seg biosig.Segment) (Result, error) {
	if err := ctx.Err(); err != nil {
		return Result{}, e.canceledError(err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	// The wait for the serial timeline may have outlived the caller:
	// re-check after acquiring the lock.
	if err := ctx.Err(); err != nil {
		return Result{}, e.canceledError(err)
	}

	start := time.Now()
	res, err := r.classifyLocked(e, seg)
	r.clock.Advance(r.period)

	m := e.obs.reg
	now := r.clock.Now()
	if err != nil && errors.Is(err, ErrNodeDown) {
		// The node was dark: nothing was served, sensed or journaled.
		// The arrival still consumed modeled time (the Advance above),
		// but it is not an applied event — no sequence number, no SLO
		// sample — so recovered and uninterrupted timelines agree on
		// what the node actually did.
		m.Counter("xpro_node_down_total",
			"Events rejected because the node was inside a node-crash/reboot window.").Inc()
		e.slo.errorsTotal.Inc()
		return res, err
	}
	// Integrity counters fire for quarantined events too: the damage
	// happened whether or not the gate let the label out.
	if res.CorruptFrames > 0 || res.CorruptDelivered > 0 {
		m.Counter("xpro_frames_corrupt_total",
			"Frames that arrived corrupted: CRC-rejected (framed) or consumed dirty (bare wire).").
			Add(float64(res.CorruptFrames + res.CorruptDelivered))
	}
	if res.ImputedValues > 0 {
		m.Counter("xpro_samples_imputed_total",
			"Crossed values reconstructed by the imputation policy after frame loss.").
			Add(float64(res.ImputedValues))
	}
	if err != nil {
		if errors.Is(err, ErrSuspectData) {
			// Quarantined events land on the SLO series too: the latency
			// and energy were spent whether or not the label was released.
			e.slo.observe(now, res.SpentSeconds, res.SensorEnergyJoules, res.ImputedValues)
			e.slo.qualityRejected.Inc()
			var ev uint64
			if tr := e.obs.tracer; tr != nil {
				ev = tr.NextEvent()
				tr.Add(telemetry.Span{
					Event: ev, Name: "classify", End: "event",
					Start: start, Wall: time.Since(start),
					DelaySeconds: res.SpentSeconds, Degraded: true, Suspect: true,
					Err: err.Error(),
				})
			}
			detail := "suspect-data"
			var sde *SuspectDataError
			if errors.As(err, &sde) {
				detail = sde.Reason()
			}
			e.obs.events.Append(telemetry.Event{
				Trace: ev, TimeSeconds: now, Kind: "quarantine",
				Mode: ModeSuspectData.String(), Detail: detail,
				LatencySeconds: res.SpentSeconds, EnergyJoules: res.SensorEnergyJoules,
				Degraded: true, Suspect: true,
			})
		}
		e.slo.errorsTotal.Inc()
		r.ledgerLocked(e, res, err)
		return res, err
	}
	if r.ctrl != nil {
		// Close the adaptive loop: fold the event's channel evidence,
		// let probation roll a misbehaving fresh cut back, then ask the
		// controller whether the estimated channel prices a better cut.
		violated := res.DeadlineExceeded || res.SpentSeconds > r.policy.Deadline
		if ch := r.ctrl.ObserveEvent(now, r.lastOut, violated); ch != nil {
			r.install(e, ch)
		}
		if ch, cerr := r.ctrl.Evaluate(now); cerr == nil && ch != nil {
			r.install(e, ch)
		}
	}
	res.Breaker = r.breaker.State().String()
	// The ledger entry comes after the breaker read and the adaptive
	// folds above: the journal record must capture the post-event state
	// exactly, or a recovered engine would diverge from this one.
	r.ledgerLocked(e, res, nil)
	e.slo.classifyTotal.Inc()
	e.slo.observe(now, res.SpentSeconds, res.SensorEnergyJoules, res.ImputedValues)
	m.Histogram("xpro_classify_seconds",
		"Wall time of one Classify call.", telemetry.DurationBuckets).
		Observe(time.Since(start).Seconds())
	if res.Retries > 0 {
		m.Counter("xpro_transfer_retries_total",
			"Cross-end transfer re-sends made by the resilience policy.").
			Add(float64(res.Retries))
	}
	if res.LostTransfers > 0 {
		m.Counter("xpro_transfer_drops_total",
			"Cross-end transfers that exhausted their retry budget.").
			Add(float64(res.LostTransfers))
	}
	if res.DeadlineExceeded {
		m.Counter("xpro_deadline_exceeded_total",
			"Events whose modeled deadline budget ran out.").Inc()
	}
	if res.Degraded {
		e.slo.degraded[res.Mode].Inc()
	}
	var ev uint64
	if tr := e.obs.tracer; tr != nil {
		ev = tr.NextEvent()
		tr.Add(telemetry.Span{
			Event: ev, Name: "classify", End: "event",
			Start: start, Wall: time.Since(start),
			DelaySeconds: res.SpentSeconds, Degraded: res.Degraded,
			Suspect: res.Mode == ModeSuspectData,
		})
	}
	e.obs.events.Append(telemetry.Event{
		Trace: ev, TimeSeconds: now, Kind: "classify", Mode: res.Mode.String(),
		LatencySeconds: res.SpentSeconds, EnergyJoules: res.SensorEnergyJoules,
		Degraded: res.Degraded,
	})
	return res, nil
}

func (r *resilient) classifyLocked(e *Engine, seg biosig.Segment) (Result, error) {
	now := r.clock.Now()
	state := r.plan.At(now)
	// A node inside a node-crash/reboot window is off the air: the
	// event fails fast before the admission gate, the breaker or the
	// link can see it. classifyCtx still advances the clock for the
	// arrival — time passes whether or not the node is up — so a stream
	// of arrivals carries the node past the window's end.
	if state.NodeDown {
		if !r.down {
			r.crashLocked(e, state.Graceful, now)
		}
		return Result{}, &NodeDownError{
			AtSeconds: now, UntilSeconds: r.plan.DownUntil(now), Graceful: state.Graceful,
		}
	}
	if r.down {
		r.rejoinLocked(e, now)
	}
	// The admission gate runs before anything touches the modeled
	// timeline: a rejected segment advances no clock, trips no breaker
	// and draws nothing from the link RNG, so gated and ungated runs of
	// admissible streams replay identically.
	if r.integ.gateOn() {
		if reasons := r.integ.inspect(seg.Samples); len(reasons) > 0 {
			return Result{Degraded: true, Mode: ModeSuspectData},
				&SuspectDataError{Reasons: reasons}
		}
	}
	if state != r.lastState {
		// A fault window opened or closed since the previous event; the
		// degraded-path pricing a network report would compute may have
		// changed with it.
		r.lastState = state
		e.epoch.Add(1)
	}
	if r.ctrl != nil {
		// Ambient channel observation: what the modem can see of the
		// environment this instant, whether or not the active cut puts
		// payloads on the air — a controller parked on the in-sensor cut
		// still notices the channel recovering.
		r.ctrl.Estimator().ObserveState(state)
		r.lastOut = xsystem.Outcome{}
	}
	if r.browned.Load() {
		// Fleet brownout: sustained overload forced every engine onto
		// its cheap rung. Skip the cross-end attempt entirely — no link
		// retries, no backoff stalls — and serve from the precomputed
		// in-sensor fallback (or the software fallback if the sensor's
		// cell array is also browned out). Service time drops to the
		// fallback's stable cost, which is the whole point: capacity
		// rises instead of the queue.
		return r.fallbackClassify(e, seg, state, xsystem.Outcome{})
	}
	opt := &xsystem.ResilientOptions{
		Transport: r.link,
		Plan:      r.plan,
		Clock:     r.clock,
		Policy:    r.policy,
		Breaker:   r.breaker,
		Integrity: r.framing,
	}

	if r.breaker.Allow() {
		out, err := e.sys().ClassifyOver(seg, opt)
		r.lastOut = out
		if err == nil {
			res := Result{
				Label: out.Label, VotesUsed: out.VotesUsed, VotesTotal: out.VotesTotal,
				Retries: out.Retries, LostTransfers: out.LostTransfers,
				DeadlineExceeded: out.DeadlineExceeded, SpentSeconds: out.SpentSeconds,
				CorruptFrames: out.CorruptFrames, CorruptDelivered: out.CorruptDelivered,
				ImputedValues: out.ImputedValues, SensorEnergyJoules: out.SensorEnergy,
			}
			switch {
			case out.Complete:
				res.Mode = ModeFull
			case !out.Delivered:
				res.Mode, res.Degraded = ModeSensorLocal, true
			default:
				res.Mode, res.Degraded = ModePartial, true
			}
			// The gate's exit check: an event that leaned too hard on
			// imputation is quarantined — the label it produced rides
			// along for inspection, but the caller gets ErrSuspectData.
			if r.integ.gateOn() && out.WireValues > 0 {
				if f := float64(out.ImputedValues) / float64(out.WireValues); f > r.integ.maxImputedFraction() {
					res.Mode, res.Degraded = ModeSuspectData, true
					return res, &SuspectDataError{Reasons: []string{"excess-imputation"}}
				}
			}
			return res, nil
		}
		var nores *xsystem.NoResultError
		if !errors.As(err, &nores) {
			return Result{}, err // a genuine pipeline failure, not a fault
		}
		if r.failFast {
			return Result{}, fmt.Errorf("xpro: classify failed without fallback (FailFast): %w", err)
		}
		return r.fallbackClassify(e, seg, state, nores.Outcome)
	}
	if r.failFast {
		return Result{}, fmt.Errorf("xpro: circuit breaker open and FailFast set: %w",
			&faults.ErrLinkDown{At: r.clock.Now(), Until: r.plan.Until(r.clock.Now(), faults.LinkOutage)})
	}
	return r.fallbackClassify(e, seg, state, xsystem.Outcome{})
}

// install makes a controller Change live: the new system is stored
// atomically (the swap takes effect for the next event), the headline
// gauges refresh to describe the installed cut, and the decision lands
// on the span trace as a "recut-swap" / "recut-rollback" event span at
// the modeled decision time.
func (r *resilient) install(e *Engine, ch *adaptive.Change) {
	e.active.Store(ch.System)
	e.epoch.Add(1)
	e.publishReportGauges()
	var ev uint64
	if tr := e.obs.tracer; tr != nil {
		ev = tr.NextEvent()
		tr.Add(telemetry.Span{
			Event: ev, Name: "recut-" + ch.Kind, End: "event",
			Start: time.Now(), DelaySeconds: r.clock.Now(),
		})
	}
	sensor, _ := ch.Placement.Counts()
	e.obs.events.Append(telemetry.Event{
		Trace: ev, TimeSeconds: r.clock.Now(), Kind: "recut-" + ch.Kind,
		Detail: fmt.Sprintf("sensor-cells=%d", sensor),
	})
}

// usingFallback reports whether events are currently being routed
// around the cross-end cut: an open breaker fails fast straight to the
// in-sensor fallback, and a fleet brownout forces the same route.
func (r *resilient) usingFallback() bool {
	if r.browned.Load() {
		return true
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.breaker.State() == faults.BreakerOpen
}

// setBrownedOut applies (or releases) the fleet brownout on this
// engine. The serving epoch is bumped on every edge so memoized
// network views and SLO reports rebuild against the rung the engine
// actually serves from.
func (e *Engine) setBrownedOut(on bool) {
	if e.res == nil {
		return
	}
	if e.res.browned.Swap(on) == on {
		return
	}
	e.epoch.Add(1)
}

// brownedOut reports whether the fleet brownout currently forces this
// engine's cheap rung.
func (e *Engine) brownedOut() bool {
	return e.res != nil && e.res.browned.Load()
}

// effectiveSystem is the system this engine is serving events from
// right now: the adaptive controller's active cut, or — while the
// circuit breaker holds the link open — the in-sensor fallback cut the
// degradation ladder routes through. Network reports aggregate over
// effective systems, so a degraded node is accounted as it actually
// runs, not as it was built.
func (e *Engine) effectiveSystem() *xsystem.System {
	if e.res != nil && e.res.usingFallback() {
		return e.res.fallback
	}
	return e.sys()
}

// fallbackClassify serves the event from a degraded path after the
// cross-end cut failed (or was skipped by an open breaker).
func (r *resilient) fallbackClassify(e *Engine, seg biosig.Segment, state faults.State, attempt xsystem.Outcome) (Result, error) {
	base := Result{
		Degraded: true,
		Retries:  attempt.Retries, LostTransfers: attempt.LostTransfers,
		DeadlineExceeded: attempt.DeadlineExceeded, SpentSeconds: attempt.SpentSeconds,
		SensorEnergyJoules: attempt.SensorEnergy,
	}
	if state.Brownout {
		// The sensor's cell array is below threshold: the in-sensor
		// fallback cannot compute, but sensing survives — stream raw
		// samples and classify in software on the aggregator.
		txEnergy, ok := r.sendRaw(e)
		base.SensorEnergyJoules += txEnergy
		if !ok {
			return Result{}, fmt.Errorf("xpro: sensor browned out and link unavailable: no path to a classification")
		}
		label, err := e.ens.Predict(seg)
		if err != nil {
			return Result{}, err
		}
		base.Label, base.Mode = label, ModeFallbackSoftware
		return base, nil
	}
	// The in-sensor fallback cut: every cell on the wearable, the label
	// available locally even with the link hard down.
	out, err := r.fallback.ClassifyOver(seg, &xsystem.ResilientOptions{Policy: r.policy})
	if err != nil {
		return Result{}, fmt.Errorf("xpro: fallback cut failed: %w", err)
	}
	base.Label, base.Mode = out.Label, ModeFallbackSensor
	base.VotesUsed, base.VotesTotal = out.VotesUsed, out.VotesTotal
	if base.SpentSeconds == 0 {
		base.SpentSeconds = out.SpentSeconds
	}
	// The fallback run's sensor-side energy rides on top of whatever the
	// failed attempt already spent; when the attempt sensed the segment
	// once, the fallback does not sense it again.
	fe := out.SensorEnergy
	if attempt.SensorEnergy > 0 {
		fe -= r.fallback.Problem().SensingEnergy
	}
	if fe > 0 {
		base.SensorEnergyJoules += fe
	}
	return base, nil
}

// sendRaw attempts to move the raw segment across the link under the
// retry policy (used by the software fallback during brownouts). It
// returns the sensor-side TX energy spent across all attempts,
// successful or not — retransmissions drain the battery either way.
func (r *resilient) sendRaw(e *Engine) (float64, bool) {
	var txEnergy float64
	for attempt := 0; attempt <= r.policy.MaxRetries; attempt++ {
		tr, err := r.link.Send(e.graph.SourceBits)
		txEnergy += tr.TxEnergy
		if err == nil {
			return txEnergy, true
		}
	}
	return txEnergy, false
}

// ClassifyResult is Classify with degradation provenance: the label
// plus how it was produced. On an engine without a Resilience policy it
// always reports ModeFull.
func (e *Engine) ClassifyResult(samples []float64) (Result, error) {
	seg := biosig.Segment{Samples: samples}
	if e.res == nil {
		label, err := e.sys().Classify(seg)
		if err != nil {
			return Result{}, err
		}
		return Result{Label: label, Mode: ModeFull}, nil
	}
	return e.res.classify(e, seg)
}

// StreamResult is one streamed classification with its degradation
// provenance.
type StreamResult struct {
	// Index is the 0-based position of the segment in the input stream.
	Index  int
	Result Result
	Err    error
}

// Stream classifies segments arriving on in until it is closed; results
// arrive in input order and the returned channel closes after the last.
// Without a Resilience policy events pipeline through the concurrent
// cell network; with one, events run sequentially through the
// resilience ladder (the modeled clock and breaker are a serial
// timeline) and faults degrade results instead of erroring.
func (e *Engine) Stream(in <-chan []float64) <-chan StreamResult {
	out := make(chan StreamResult)
	if e.res != nil {
		go func() {
			defer close(out)
			i := 0
			for s := range in {
				res, err := e.res.classify(e, biosig.Segment{Samples: s})
				out <- StreamResult{Index: i, Result: res, Err: err}
				i++
			}
		}()
		return out
	}
	sysIn := make(chan biosig.Segment)
	results := e.sys().Stream(sysIn)
	go func() {
		defer close(sysIn)
		for s := range in {
			sysIn <- biosig.Segment{Samples: s}
		}
	}()
	go func() {
		defer close(out)
		for r := range results {
			out <- StreamResult{Index: r.Index, Result: Result{Label: r.Label, Mode: ModeFull}, Err: r.Err}
		}
	}()
	return out
}

// SimulatedFaultyDelays runs n consecutive events through the
// discrete-event scheduler (internal/eventsim) under a fault plan:
// event i starts at i × event-period on the plan's timeline, so outage,
// brownout and stall windows stall the schedule and show up as
// delay-constraint violations. It returns each event's finish time
// (its latency); compare against Report().DelayPerEventSeconds to count
// violations. A nil plan reproduces the clean SimulatedDelay per event.
func (e *Engine) SimulatedFaultyDelays(plan *FaultPlan, n int) ([]float64, error) {
	if n <= 0 {
		return nil, fmt.Errorf("xpro: event count %d must be positive", n)
	}
	p, err := plan.internal()
	if err != nil {
		return nil, err
	}
	in := e.simInput()
	in.Faults = p
	if plan != nil {
		in.FaultSeed = plan.Seed
	}
	period := 0.0
	if ev := e.sys().EventsPerSecond(); ev > 0 {
		period = 1 / ev
	}
	out := make([]float64, n)
	for i := range out {
		in.Start = float64(i) * period
		tr, err := eventsim.Simulate(in)
		if err != nil {
			return nil, err
		}
		out[i] = tr.Finish
	}
	return out, nil
}

// DegradeTiers is the k-way rung of the degradation ladder: when every
// hop above maxTier is unusable (dead uplink, crashed hub), the plan
// clamps its assignment to tiers <= maxTier — the N-tier analogue of
// ModeFallbackSensor, which is exactly DegradeTiers(0). The clamp is
// logged like any other decision; Resolve climbs back when the air
// clears.
func (p *TierPlan) DegradeTiers(maxTier int) (bool, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	k := p.ts.Tiered.K()
	if maxTier < 0 || maxTier >= k {
		return false, fmt.Errorf("xpro: degrade tier %d outside [0,%d)", maxTier, k)
	}
	next := p.ts.TierPlacement.CapAt(partition.Tier(maxTier))
	moved := !next.Equal(p.ts.TierPlacement)
	if moved {
		if err := p.install(next); err != nil {
			return false, err
		}
	}
	p.logDecision(TierDecision{Op: "degrade", Hop: maxTier, Moved: moved})
	return moved, nil
}
