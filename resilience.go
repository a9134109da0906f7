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
// Returned beside ErrSuspectData, or beside the error of an event no
// rung of the ladder could serve, it still carries the event's bill:
// its mode (the quarantine, or the rung that failed), time, energy,
// retries and lost transfers.
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

// resilient is the engine's fault-tolerance state: the 2-end serving
// runtime (adaptive.EndRuntime: the virtual clock, the fault-injected
// link, the circuit breaker, the precomputed in-sensor fallback cut and
// the degradation ladder over them), the integrity gate and the durable
// ledgers. Events are serialized through mu — the modeled clock, the
// breaker and the link's random stream are single-threaded by design,
// so that a seeded run replays bit-identically.
type resilient struct {
	mu   sync.Mutex
	rt   *adaptive.EndRuntime
	plan *faults.Plan
	// integ is the data-plane integrity config (nil without
	// Config.Integrity).
	integ *Integrity
	// lastState is the fault-plan state seen by the previous event;
	// crossing a window edge bumps the engine's serving epoch so
	// memoized network views rebuild.
	lastState faults.State

	// The crash-tolerance layer (recovery.go). The ledgers join the
	// runtime's snapshot in the durable record. store (when attached via
	// EnableRecovery) receives one journal record per applied event;
	// lastCkpt is the modeled time of the last checkpoint (-1: never).
	// down marks the node inside a node-crash/reboot window.
	ledgers
	down     bool
	store    *DurableStore
	lastCkpt float64

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
	var seed int64
	if cfg.FaultPlan != nil {
		seed = cfg.FaultPlan.Seed
	}
	// The adaptive re-cut controller: same reference system, same delay
	// constraint T_XPro = min(T_F, T_B) the static generator used. The
	// runtime feeds its estimator every channel signal it produces: the
	// link's per-send statistics, breaker transitions, fault-window
	// state and outcomes per event.
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
	}
	period := 0.0
	if ev := sys.EventsPerSecond(); ev > 0 {
		period = 1 / ev
	}
	rt, err := adaptive.NewEndRuntime(sys, adaptive.EndConfig{
		Policy: pol, Plan: plan, BaseLoss: rc.BaseLoss, Seed: seed,
		Framing: cfg.Integrity.framing(), Period: period, FailFast: rc.FailFast, Controller: ctrl,
	})
	if err != nil {
		return nil, err
	}
	return &resilient{rt: rt, plan: plan, integ: cfg.Integrity, lastCkpt: -1}, nil
}

// classifyCtx runs one event through the fault-tolerance layer: the
// node-down window and the integrity gate, then the runtime's ladder
// (adaptive.EndRuntime.Serve), the clock advance and the adaptive
// folds. A canceled or expired ctx abandons the event with a typed
// ErrCanceled error BEFORE it touches the modeled timeline — the clock
// does not advance, the breaker records nothing, the link RNG stays
// untouched — so canceled events are invisible to seeded replay and
// never trip the breaker.
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
	r.rt.Tick()

	m := e.obs.reg
	now := r.rt.Clock().Now()
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
	// Close the adaptive loop: probation may roll a misbehaving fresh
	// cut back, and the estimated channel may price a better cut.
	rollback, swap := r.rt.Fold(res.DeadlineExceeded, res.SpentSeconds)
	for _, ch := range [2]*adaptive.Change{rollback, swap} {
		if ch != nil {
			r.install(e, ch)
		}
	}
	res.Breaker = r.rt.Breaker().State().String()
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
	now := r.rt.Clock().Now()
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
	// An event no rung could serve keeps its bill with the error, as a
	// quarantined one does, so the energy ledger books its drain.
	ev, err := r.rt.Serve(e.sys(), seg, r.browned.Load())
	res := Result{
		Label: ev.Label, Degraded: ev.Rung != adaptive.RungFull, Mode: rungModes[ev.Rung],
		VotesUsed: ev.VotesUsed, VotesTotal: ev.VotesTotal,
		Retries: ev.Retries, LostTransfers: ev.LostTransfers,
		DeadlineExceeded: ev.DeadlineExceeded, SpentSeconds: ev.SpentSeconds,
		CorruptFrames: ev.CorruptFrames, CorruptDelivered: ev.CorruptDelivered,
		ImputedValues: ev.ImputedValues, SensorEnergyJoules: ev.SensorEnergy,
	}
	if err != nil {
		return res, worded(err)
	}
	// The gate's exit check: an event that leaned too hard on
	// imputation is quarantined — the label it produced rides along for
	// inspection, but the caller gets ErrSuspectData.
	if r.integ.gateOn() && ev.WireValues > 0 {
		if f := float64(ev.ImputedValues) / float64(ev.WireValues); f > r.integ.maxImputedFraction() {
			res.Mode, res.Degraded = ModeSuspectData, true
			return res, &SuspectDataError{Reasons: []string{"excess-imputation"}}
		}
	}
	return res, nil
}

// rungModes maps the runtime's ladder rungs onto the public modes.
var rungModes = [...]DegradeMode{
	adaptive.RungFull:             ModeFull,
	adaptive.RungPartial:          ModePartial,
	adaptive.RungSensorLocal:      ModeSensorLocal,
	adaptive.RungFallbackSensor:   ModeFallbackSensor,
	adaptive.RungFallbackSoftware: ModeFallbackSoftware,
}

// worded gives an error of the runtime's ladder the engine's wording;
// a genuine pipeline failure passes through as it is.
func worded(err error) error {
	var nores *xsystem.NoResultError
	var down *faults.ErrLinkDown
	switch {
	case errors.Is(err, adaptive.ErrFallback), errors.Is(err, adaptive.ErrNoPath):
		return fmt.Errorf("xpro: %w", err)
	case errors.As(err, &nores):
		return fmt.Errorf("xpro: classify failed without fallback (FailFast): %w", err)
	case errors.As(err, &down):
		return fmt.Errorf("xpro: circuit breaker open and FailFast set: %w", err)
	}
	return err
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
			Start: time.Now(), DelaySeconds: r.rt.Clock().Now(),
		})
	}
	sensor, _ := ch.Placement.Counts()
	e.obs.events.Append(telemetry.Event{
		Trace: ev, TimeSeconds: r.rt.Clock().Now(), Kind: "recut-" + ch.Kind,
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
	return r.rt.Breaker().State() == faults.BreakerOpen
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
		return e.res.rt.Fallback()
	}
	return e.sys()
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
		e.observePlainEvents(1)
		return Result{Label: label, Mode: ModeFull}, nil
	}
	return e.res.classifyCtx(context.Background(), e, seg)
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
// It is StreamParallel with a background context and GOMAXPROCS
// workers: without a Resilience policy each event runs the Classify
// walk on the worker pool; with one, events run sequentially through
// the resilience ladder (the modeled clock and breaker are a serial
// timeline) and faults degrade results instead of erroring. Errors are
// per event: a segment that cannot be classified (a wrong length, say)
// yields one result with Err set at its own Index, and the stream goes
// on with the next segment. The caller must drain the returned channel.
func (e *Engine) Stream(in <-chan []float64) <-chan StreamResult {
	return e.StreamParallel(context.Background(), in, 0)
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
