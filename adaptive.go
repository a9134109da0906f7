package xpro

import (
	"xpro/internal/adaptive"
	"xpro/internal/admit"
)

// This file is the public face of closed-loop adaptive repartitioning
// (internal/adaptive). The paper's Automatic XPro Generator prices the
// cross-end cut once, against the datasheet channel; a deployed
// wearable's channel drifts — interference raises the packet-loss
// rate, the wearer walks out of range — and the once-optimal cut can
// quietly become the most expensive one as every crossing payload pays
// retransmissions. An engine built with Config.Adaptive closes the
// loop: an online channel estimator folds the evidence the resilience
// layer already produces (per-send statistics, fault-window state,
// breaker transitions), a controller re-runs the same min-cut
// generator against the estimated channel, and a sufficiently better
// cut is hot-swapped in between events — with hysteresis and a
// probation window that rolls a misbehaving fresh cut back.

// Adaptive configures the adaptive repartitioning controller.
// Construct it with DefaultAdaptive and override fields; every field
// must be set (the controller rejects zero and non-finite knobs).
type Adaptive struct {
	// Alpha is the EWMA weight of the channel estimator, in (0, 1]:
	// larger tracks drift faster, smaller smooths noise harder.
	Alpha float64
	// MinDwellSeconds is the minimum modeled time between cut changes —
	// the hysteresis that stops a flapping channel from thrashing the
	// placement.
	MinDwellSeconds float64
	// ImprovementThreshold is the minimum relative sensor-energy
	// improvement (under the estimated channel) a candidate cut needs
	// before it replaces the active one, in (0, 1).
	ImprovementThreshold float64
	// ProbationEvents is how many events a freshly installed cut is
	// watched: violating the deadline more often than the previous cut
	// already did rolls the swap back.
	ProbationEvents int
	// MaxInflation caps the estimated retransmission factor the
	// re-pricing applies (≥ 1); a hard outage pins the effective channel
	// to this cap.
	MaxInflation float64
}

// DefaultAdaptive returns the default controller tuning.
func DefaultAdaptive() *Adaptive {
	c := adaptive.DefaultConfig()
	return &Adaptive{
		Alpha:                c.Alpha,
		MinDwellSeconds:      c.MinDwellSeconds,
		ImprovementThreshold: c.ImprovementThreshold,
		ProbationEvents:      c.ProbationEvents,
		MaxInflation:         c.MaxInflation,
	}
}

func (a *Adaptive) internal() adaptive.Config {
	return adaptive.Config{
		Alpha:                a.Alpha,
		MinDwellSeconds:      a.MinDwellSeconds,
		ImprovementThreshold: a.ImprovementThreshold,
		ProbationEvents:      a.ProbationEvents,
		MaxInflation:         a.MaxInflation,
	}
}

// RecutDecision is one entry of the adaptive controller's decision
// log: a hot swap to a better cut, or a probation rollback to the
// previous one. The log is fully determined by the engine's fault-plan
// seed, so a seeded run replays an identical sequence.
type RecutDecision struct {
	// AtSeconds is the modeled time of the decision.
	AtSeconds float64
	// Kind is "swap" or "rollback".
	Kind string
	// EstimatedLoss / EstimatedOutage are the channel estimate that
	// motivated the decision.
	EstimatedLoss, EstimatedOutage float64
	// SensorCellsBefore / SensorCellsAfter count the sensor-side cells
	// of the outgoing and incoming cuts.
	SensorCellsBefore, SensorCellsAfter int
	// FromEnergyJ / ToEnergyJ are the per-event sensor energies of the
	// two cuts priced under the estimated channel (zero on rollbacks).
	FromEnergyJ, ToEnergyJ float64
}

// RecutLog returns the adaptive controller's decision log, oldest
// first. Engines without Config.Adaptive return nil.
func (e *Engine) RecutLog() []RecutDecision {
	if e.res == nil || e.res.rt.Controller() == nil {
		return nil
	}
	e.res.mu.Lock()
	ds := e.res.rt.Controller().Decisions()
	e.res.mu.Unlock()
	out := make([]RecutDecision, len(ds))
	for i, d := range ds {
		fs, _ := d.From.Counts()
		ts, _ := d.To.Counts()
		out[i] = RecutDecision{
			AtSeconds:         d.At,
			Kind:              d.Kind,
			EstimatedLoss:     d.Loss,
			EstimatedOutage:   d.Outage,
			SensorCellsBefore: fs,
			SensorCellsAfter:  ts,
			FromEnergyJ:       d.FromEnergy,
			ToEnergyJ:         d.ToEnergy,
		}
	}
	return out
}

// AdaptiveStatus is a point-in-time snapshot of the adaptive
// repartitioning loop.
type AdaptiveStatus struct {
	// Enabled is true when the engine was built with Config.Adaptive.
	Enabled bool
	// EstimatedLoss / EstimatedOutage are the channel estimator's
	// current EWMA view; Samples counts the observations folded in.
	EstimatedLoss, EstimatedOutage float64
	Samples                        int
	// SensorCells / AggregatorCells describe the currently active cut.
	SensorCells, AggregatorCells int
	// OnProbation is true while a freshly swapped cut is still being
	// watched for rollback.
	OnProbation bool
	// Swaps / Rollbacks count the decisions taken so far.
	Swaps, Rollbacks int
}

// Overload configures the fleet's overload-protection loop
// (ServeOptions.Overload): the deadline-aware admission controller in
// front of the worker pool, and the brownout controller that couples
// sustained queue delay to the degradation ladder. Construct it with
// DefaultOverload and override fields; the controllers reject
// non-finite or inconsistent knobs when the fleet starts.
//
// The brownout half mirrors the adaptive re-cut controller's shape:
// hysteresis (the Enter/Exit gap plus a minimum dwell) stops a noisy
// queue from flapping the fleet, and a probation window after entry
// verifies the cheap rung actually reduced the delay — if it did not,
// the brownout rolls back (the queue was not service-time bound and
// the quality cost bought nothing).
type Overload struct {
	// TargetDelaySeconds is the acceptable standing queue delay; a
	// sojourn above it for IntervalSeconds trips CoDel-style dropping
	// of the lowest class.
	TargetDelaySeconds float64
	IntervalSeconds    float64
	// Alpha is the EWMA weight of the service-time and queue-delay
	// estimators, in (0, 1].
	Alpha float64
	// BatchShare / InteractiveShare are the queue-occupancy fractions
	// those classes may use (0 < BatchShare ≤ InteractiveShare ≤ 1);
	// alert traffic always has the full queue. Monotone shares are
	// what makes shedding strict-priority.
	BatchShare, InteractiveShare float64
	// Per-class default deadline budgets, applied when a submission's
	// context carries no deadline. Zero disables the class default.
	BatchBudgetSeconds       float64
	InteractiveBudgetSeconds float64
	AlertBudgetSeconds       float64

	// BrownoutEnterSeconds / BrownoutExitSeconds bound the
	// queue-delay EWMA hysteresis band; BrownoutMinDwellSeconds the
	// minimum time between brownout transitions.
	BrownoutEnterSeconds    float64
	BrownoutExitSeconds     float64
	BrownoutMinDwellSeconds float64
	// BrownoutProbationSeconds / BrownoutImprovementFactor shape the
	// rollback check: ProbationSeconds after entering, the delay must
	// be under entry × ImprovementFactor or the brownout rolls back.
	BrownoutProbationSeconds  float64
	BrownoutImprovementFactor float64
}

// DefaultOverload returns the default overload-protection tuning:
// 5 ms CoDel target over a 100 ms interval, batch capped at half the
// queue and interactive at 80%, brownout entering at 50 ms sustained
// queue delay and exiting under 10 ms.
func DefaultOverload() *Overload {
	ac := admit.DefaultConfig()
	bc := admit.DefaultBrownoutConfig()
	return &Overload{
		TargetDelaySeconds:        ac.TargetDelaySeconds,
		IntervalSeconds:           ac.IntervalSeconds,
		Alpha:                     ac.Alpha,
		BatchShare:                ac.BatchShare,
		InteractiveShare:          ac.InteractiveShare,
		BrownoutEnterSeconds:      bc.EnterDelaySeconds,
		BrownoutExitSeconds:       bc.ExitDelaySeconds,
		BrownoutMinDwellSeconds:   bc.MinDwellSeconds,
		BrownoutProbationSeconds:  bc.ProbationSeconds,
		BrownoutImprovementFactor: bc.ImprovementFactor,
	}
}

func (o *Overload) internal() (admit.Config, admit.BrownoutConfig) {
	return admit.Config{
			TargetDelaySeconds:       o.TargetDelaySeconds,
			IntervalSeconds:          o.IntervalSeconds,
			Alpha:                    o.Alpha,
			BatchShare:               o.BatchShare,
			InteractiveShare:         o.InteractiveShare,
			BatchBudgetSeconds:       o.BatchBudgetSeconds,
			InteractiveBudgetSeconds: o.InteractiveBudgetSeconds,
			AlertBudgetSeconds:       o.AlertBudgetSeconds,
		}, admit.BrownoutConfig{
			EnterDelaySeconds: o.BrownoutEnterSeconds,
			ExitDelaySeconds:  o.BrownoutExitSeconds,
			MinDwellSeconds:   o.BrownoutMinDwellSeconds,
			ProbationSeconds:  o.BrownoutProbationSeconds,
			ImprovementFactor: o.BrownoutImprovementFactor,
		}
}

// BrownoutEvent is one transition of the fleet brownout controller.
type BrownoutEvent struct {
	// AtSeconds is the transition time on host uptime.
	AtSeconds float64
	// Kind is "enter", "exit" or "rollback".
	Kind string
	// QueueDelaySeconds is the queue-delay EWMA at transition time.
	QueueDelaySeconds float64
}

// OverloadStatus is a point-in-time snapshot of the fleet's
// overload-protection loop.
type OverloadStatus struct {
	// Enabled is true when the fleet was served with
	// ServeOptions.Overload.
	Enabled bool
	// BrownedOut is true while every engine is forced onto its cheap
	// rung; Dropping while the admission controller's CoDel state is
	// draining a standing queue.
	BrownedOut bool
	Dropping   bool
	// QueueDelaySeconds is the queue-delay EWMA; ServiceSeconds the
	// per-event service-time EWMA.
	QueueDelaySeconds float64
	ServiceSeconds    float64
	// Sheds / Admitted count admission decisions per class, keyed by
	// the class label ("batch", "interactive", "alert").
	Sheds    map[string]uint64
	Admitted map[string]uint64
	// BrownoutEnters / BrownoutExits / BrownoutRollbacks count the
	// controller's transitions.
	BrownoutEnters    uint64
	BrownoutExits     uint64
	BrownoutRollbacks uint64
}

// OverloadStatus reports the overload-protection loop's state. On a
// fleet served without ServeOptions.Overload only Enabled=false is
// populated.
func (f *Fleet) OverloadStatus() OverloadStatus {
	if f.admit == nil {
		return OverloadStatus{}
	}
	st := OverloadStatus{
		Enabled:           true,
		BrownedOut:        f.brown.Active(),
		Dropping:          f.admit.Dropping(),
		QueueDelaySeconds: f.admit.QueueDelay(),
		ServiceSeconds:    f.admit.ServiceEstimate(),
		Sheds:             make(map[string]uint64, admit.NumClasses),
		Admitted:          make(map[string]uint64, admit.NumClasses),
	}
	sheds, admitted := f.admit.Sheds(), f.admit.Admitted()
	for c := admit.Class(0); c < admit.Class(admit.NumClasses); c++ {
		st.Sheds[c.String()] = sheds[c]
		st.Admitted[c.String()] = admitted[c]
	}
	st.BrownoutEnters, st.BrownoutExits, st.BrownoutRollbacks = f.brown.Counts()
	return st
}

// BrownoutLog returns the fleet brownout controller's bounded
// transition log, oldest first. Fleets without overload protection
// return nil.
func (f *Fleet) BrownoutLog() []BrownoutEvent {
	if f.brown == nil {
		return nil
	}
	events, _ := f.brown.Events()
	out := make([]BrownoutEvent, len(events))
	for i, ev := range events {
		out[i] = BrownoutEvent{AtSeconds: ev.TimeSeconds, Kind: ev.Kind, QueueDelaySeconds: ev.DelaySeconds}
	}
	return out
}

// AdaptiveStatus reports the adaptive loop's current state. On an
// engine without Config.Adaptive only the active-cut cell counts are
// populated.
func (e *Engine) AdaptiveStatus() AdaptiveStatus {
	var st AdaptiveStatus
	st.SensorCells, st.AggregatorCells = e.sys().Placement.Counts()
	if e.res == nil || e.res.rt.Controller() == nil {
		return st
	}
	e.res.mu.Lock()
	defer e.res.mu.Unlock()
	est := e.res.rt.Controller().Estimator().Estimate()
	st.Enabled = true
	st.EstimatedLoss = est.Loss
	st.EstimatedOutage = est.Outage
	st.Samples = est.Samples
	st.OnProbation = e.res.rt.Controller().OnProbation()
	for _, d := range e.res.rt.Controller().Decisions() {
		switch d.Kind {
		case "swap":
			st.Swaps++
		case "rollback":
			st.Rollbacks++
		}
	}
	return st
}

// RecutHopFromEstimate is the k-way arm of the adaptive loop: it reads
// the engine's live channel estimate (the same EWMA that drives the
// 2-end re-cut controller) and re-optimizes one hop of the plan under
// it. Engines without Config.Adaptive re-cut under a clean channel —
// still exact, just not drift-aware. The decision lands on the plan's
// log like a manual RecutHop.
func (p *TierPlan) RecutHopFromEstimate(e *Engine, hop int) (bool, error) {
	var loss, outage float64
	if e != nil && e.res != nil && e.res.rt.Controller() != nil {
		e.res.mu.Lock()
		est := e.res.rt.Controller().Estimator().Estimate()
		e.res.mu.Unlock()
		loss, outage = est.Loss, est.Outage
	}
	return p.RecutHop(hop, loss, outage)
}
