// Package chaos is the long-horizon soak harness for the adaptive
// repartitioning controller. It replays seeded channel-drift profiles
// against three variants of the engine's own 2-end runtime
// (adaptive.EndRuntime), built from the same trained system:
//
//   - static: the generated cross-end cut, retries only — what the
//     paper's engine does when the channel drifts;
//   - ladder: the static cut behind the resilience degradation ladder
//     (breaker and in-sensor fallback) — rides faults out but never
//     re-optimizes;
//   - adaptive: the ladder plus the re-cut controller of
//     internal/adaptive — re-prices the partition against the
//     estimated channel and hot-swaps the active cut.
//
// Everything is driven by the modeled clock and seeded fault plans, so
// a soak replays bit-identically: same seed, same decisions, same
// totals. The harness reports per-variant sensor energy and
// deadline-violation counts; the acceptance property is that the
// adaptive variant spends less sensor energy than the static cut and
// violates fewer deadlines than the ladder on drifting channels.
package chaos

import (
	"errors"
	"fmt"
	"math"

	"xpro/internal/adaptive"
	"xpro/internal/biosig"
	"xpro/internal/faults"
	"xpro/internal/partition"
	"xpro/internal/telemetry"
	"xpro/internal/xsystem"
)

// ProfileNames lists the built-in drift profiles.
func ProfileNames() []string {
	return []string{"squall", "cyclone", "monsoon", "staircase", "flapping", "hailstorm", "garble", "reboot-storm", "flash-crowd"}
}

// Profile builds a named channel-drift plan over the given horizon
// (modeled seconds), seeded deterministically:
//
//	squall     one long moderate loss storm (75% loss) over the middle
//	           of the run — drains a static cross-end cut through
//	           retransmissions
//	cyclone    the same shape at 90% loss — past the crossover where
//	           even a transmission-light cross-end cut should abandon
//	           the link for the in-sensor anchor
//	monsoon    a hard outage inside a wider loss storm — the link dies
//	           and comes back
//	staircase  loss ramping up in steps (30% → 50% → 70%), then clear —
//	           gradual drift, no sharp edge
//	flapping   seeded short outages and bursts in quick succession —
//	           the hysteresis stress test
//	hailstorm  a bit-flip storm (BER 10⁻³) over the middle of the run —
//	           frames arrive, but arrive damaged; with framing enabled
//	           (Config.Framing) the CRC turns corruption into retries
//	           and imputation, without it the damage is consumed
//	garble     seeded mixed corruption — flip, duplicate and reorder
//	           windows over a lossy background
//	reboot-storm  seeded node-crash and reboot windows over a lossy
//	           background — the node itself keeps dying and coming
//	           back; events inside a window produce nothing at all
//	flash-crowd  seeded demand-surge windows (10× arrival rate) over a
//	           lossy background — the correlated overload storm: every
//	           subject on a channel bursts at once while the channel
//	           itself degrades. The classify pipeline ignores surge
//	           windows; arrival processes (FlashCrowd, the simulator)
//	           read them through State.Surge
func Profile(name string, seed int64, horizon float64) (*faults.Plan, error) {
	if !(horizon > 0) {
		return nil, fmt.Errorf("chaos: horizon %v must be positive", horizon)
	}
	h := horizon
	switch name {
	case "squall":
		return &faults.Plan{Windows: []faults.Window{
			{Kind: faults.LossBurst, Start: 0.2 * h, End: 0.8 * h, Loss: 0.75},
		}}, nil
	case "cyclone":
		return &faults.Plan{Windows: []faults.Window{
			{Kind: faults.LossBurst, Start: 0.2 * h, End: 0.8 * h, Loss: 0.9},
		}}, nil
	case "monsoon":
		return &faults.Plan{Windows: []faults.Window{
			{Kind: faults.LossBurst, Start: 0.15 * h, End: 0.85 * h, Loss: 0.5},
			{Kind: faults.LinkOutage, Start: 0.35 * h, End: 0.6 * h},
		}}, nil
	case "staircase":
		return &faults.Plan{Windows: []faults.Window{
			{Kind: faults.LossBurst, Start: 0.15 * h, End: 0.35 * h, Loss: 0.3},
			{Kind: faults.LossBurst, Start: 0.35 * h, End: 0.55 * h, Loss: 0.5},
			{Kind: faults.LossBurst, Start: 0.55 * h, End: 0.75 * h, Loss: 0.7},
		}}, nil
	case "flapping":
		return faults.RandomPlan(seed, faults.PlanConfig{
			Horizon: h, Outages: 3, Bursts: 4,
			MeanDuration: h / 30, BurstLoss: 0.7,
		}), nil
	case "hailstorm":
		return &faults.Plan{Windows: []faults.Window{
			{Kind: faults.BitFlip, Start: 0.2 * h, End: 0.8 * h, Rate: 1e-3},
		}}, nil
	case "garble":
		return faults.RandomPlan(seed, faults.PlanConfig{
			Horizon: h, Bursts: 2, Flips: 2, Dups: 2, Reorders: 2,
			MeanDuration: h / 20, BurstLoss: 0.5, FlipRate: 1.5e-3,
		}), nil
	case "reboot-storm":
		return faults.RandomPlan(seed, faults.PlanConfig{
			Horizon: h, Bursts: 2, Crashes: 3, Reboots: 2,
			MeanDuration: h / 25, BurstLoss: 0.5,
		}), nil
	case "flash-crowd":
		return faults.RandomPlan(seed, faults.PlanConfig{
			Horizon: h, Bursts: 2, Surges: 3,
			MeanDuration: h / 8, BurstLoss: 0.6, SurgeFactor: 10,
		}), nil
	default:
		return nil, fmt.Errorf("chaos: unknown profile %q (have %v)", name, ProfileNames())
	}
}

// Config shapes one soak run.
type Config struct {
	// Profile names the drift plan (see ProfileNames).
	Profile string
	// Seed drives the fault plan and every lossy link; the same seed
	// replays the identical soak.
	Seed int64
	// Events is the soak length in classified events (default 400).
	Events int
	// DeadlineFactor scales the engine's delay limit T_XPro into the
	// per-event deadline (default 2): an event slower than
	// DeadlineFactor·T_XPro is a deadline violation.
	DeadlineFactor float64
	// LinkRetries is the link-layer per-packet retransmission budget
	// (default 6, a persistent 802.15.4 / BLE MAC) — it keeps individual
	// packets alive so payload transfers mostly succeed at inflated
	// energy, which is exactly the drift the re-cut controller should
	// price in.
	LinkRetries int
	// Adaptive configures the controller (zero value: defaults).
	Adaptive adaptive.Config
	// Framing, when set, wraps every payload transfer in the
	// internal/frame integrity envelope (CRC + sequence numbers), so
	// corruption profiles are detected and repaired instead of silently
	// consumed. Nil replays the legacy bare wire format.
	Framing *faults.Framing
}

func (c *Config) fill() {
	if c.Events <= 0 {
		c.Events = 400
	}
	if c.DeadlineFactor <= 0 {
		c.DeadlineFactor = 2
	}
	if c.LinkRetries == 0 {
		c.LinkRetries = 6
	}
	if c.LinkRetries < 0 {
		c.LinkRetries = 0
	}
	if c.Adaptive == (adaptive.Config{}) {
		c.Adaptive = adaptive.DefaultConfig()
	}
}

// VariantStats aggregates one variant's soak.
type VariantStats struct {
	Name string
	// Events is the number of events classified.
	Events int
	// Violations counts deadline violations: events that blew the
	// modeled per-event deadline or produced no label at all.
	Violations int
	// NoResult counts events with no label even after any fallback.
	NoResult int
	// Degraded counts events that were not full-fidelity deliveries.
	Degraded int
	// Swaps / Rollbacks count the adaptive controller's decisions
	// (zero for the other variants).
	Swaps, Rollbacks int
	// CrashEvents counts events that arrived while the node was inside
	// a node-crash/reboot window: nothing was served (they also count
	// as Violations and NoResult).
	CrashEvents int
	// CorruptFrames counts frames the integrity layer rejected (CRC)
	// plus corrupted values delivered undetected on the bare wire.
	CorruptFrames int
	// ImputedValues counts receive-side values repaired by imputation.
	ImputedValues int
	// SensorEnergyJ is the total modeled sensor-node energy spent.
	SensorEnergyJ float64
	// LatencyP50S / LatencyP99S are the per-event modeled latency
	// quantiles over the whole soak, estimated by a mergeable
	// quantile sketch (rank error under 1%).
	LatencyP50S, LatencyP99S float64
	// FinalSensorCells is the sensor-side cell count of the cut that
	// was active when the soak ended.
	FinalSensorCells int
}

// Result is one soak over one profile: the three variants side by
// side, plus the adaptive controller's decision log for determinism
// checks.
type Result struct {
	Profile string
	Seed    int64
	// LimitSeconds is the engine's delay constraint T_XPro;
	// DeadlineSeconds the per-event violation threshold.
	LimitSeconds    float64
	DeadlineSeconds float64

	Static   VariantStats
	Ladder   VariantStats
	Adaptive VariantStats

	// Decisions is the adaptive controller's re-cut log.
	Decisions []adaptive.Decision
}

// AdaptiveDominates reports the acceptance property: the adaptive
// variant spent less sensor energy than the static cut AND violated
// fewer deadlines than the pure degradation ladder.
func (r *Result) AdaptiveDominates() bool {
	return r.Adaptive.SensorEnergyJ < r.Static.SensorEnergyJ &&
		r.Adaptive.Violations < r.Ladder.Violations
}

// Soak replays one drift profile against the three variants. sys is
// the generated cross-end system (the static cut); segs supplies the
// event stream, cycled as needed.
func Soak(sys *xsystem.System, segs []biosig.Segment, cfg Config) (*Result, error) {
	if math.IsNaN(cfg.DeadlineFactor) || math.IsInf(cfg.DeadlineFactor, 0) {
		return nil, fmt.Errorf("chaos: deadline factor %v is not finite", cfg.DeadlineFactor)
	}
	cfg.fill()
	if sys == nil {
		return nil, fmt.Errorf("chaos: nil system")
	}
	if len(segs) == 0 {
		return nil, fmt.Errorf("chaos: no segments")
	}
	period := float64(sys.Graph.SegLen) / sys.SampleRateHz
	horizon := float64(cfg.Events) * period
	plan, err := Profile(cfg.Profile, cfg.Seed, horizon)
	if err != nil {
		return nil, err
	}

	// T_XPro = min(T_F, T_B): the same constraint the generator used.
	limit := sys.DelayOf(partition.InSensor(sys.Graph)).Total()
	if d := sys.DelayOf(partition.InAggregator(sys.Graph)).Total(); d < limit {
		limit = d
	}
	deadline := cfg.DeadlineFactor * limit

	res := &Result{
		Profile: cfg.Profile, Seed: cfg.Seed,
		LimitSeconds: limit, DeadlineSeconds: deadline,
	}
	res.Static, err = soakVariant(sys, false, nil, segs, plan, cfg, deadline, period)
	if err != nil {
		return nil, err
	}
	res.Static.Name = "static"
	res.Ladder, err = soakVariant(sys, true, nil, segs, plan, cfg, deadline, period)
	if err != nil {
		return nil, err
	}
	res.Ladder.Name = "ladder"

	ctrl, err := adaptive.NewController(cfg.Adaptive, sys, limit, sys.Metrics)
	if err != nil {
		return nil, err
	}
	res.Adaptive, err = soakVariant(sys, true, ctrl, segs, plan, cfg, deadline, period)
	if err != nil {
		return nil, err
	}
	res.Adaptive.Name = "adaptive"
	res.Adaptive.Swaps = countKind(ctrl.Decisions(), "swap")
	res.Adaptive.Rollbacks = countKind(ctrl.Decisions(), "rollback")
	res.Decisions = ctrl.Decisions()
	return res, nil
}

func countKind(ds []adaptive.Decision, kind string) int {
	n := 0
	for _, d := range ds {
		if d.Kind == kind {
			n++
		}
	}
	return n
}

// policy returns the soak's shared resilience policy: the per-event
// deadline budget, light retries, and a breaker that trips after three
// consecutive drops and probes again after two modeled seconds.
func policy(deadline float64) faults.Policy {
	return faults.Policy{
		Deadline:         deadline,
		MaxRetries:       2,
		Backoff:          faults.Backoff{Base: 0.2e-3, Max: 1.6e-3, Factor: 2},
		BreakerThreshold: 3,
		BreakerCooldown:  2,
		MinVotes:         1,
	}
}

// soakVariant replays the event stream through one variant on the
// engine's 2-end runtime. Without the ladder it is the static variant:
// FailFast, with a breaker that never trips; ctrl nil is the pure
// ladder; the ladder with ctrl is the adaptive engine.
func soakVariant(sys *xsystem.System, ladder bool, ctrl *adaptive.Controller,
	segs []biosig.Segment, plan *faults.Plan, cfg Config, deadline, period float64) (VariantStats, error) {

	var st VariantStats
	pol := policy(deadline)
	if !ladder {
		pol.BreakerThreshold = 0
	}
	rt, err := adaptive.NewEndRuntime(sys, adaptive.EndConfig{
		Policy: pol, Plan: plan, LinkRetries: cfg.LinkRetries, Seed: cfg.Seed,
		Framing: cfg.Framing, Period: period, FailFast: !ladder, Controller: ctrl,
	})
	if err != nil {
		return st, err
	}
	active := sys
	lat := telemetry.NewSketch(0)
	for i := 0; i < cfg.Events; i++ {
		st.Events++
		if plan.At(rt.Clock().Now()).NodeDown {
			// The node is crashed or rebooting: the event is lost
			// entirely — no classification, no channel observation (the
			// modem is off too) — but modeled time still passes, which is
			// what eventually carries the node out of the window.
			st.CrashEvents++
			st.Violations++
			st.NoResult++
			rt.Tick()
			continue
		}
		ev, err := rt.Serve(active, segs[i%len(segs)], false)
		var nores *xsystem.NoResultError
		if errors.As(err, &nores) {
			// The static variant's failed attempt: billed, no label.
			ev.Outcome = nores.Outcome
		}
		st.SensorEnergyJ += ev.SensorEnergy
		st.CorruptFrames += ev.CorruptFrames + ev.CorruptDelivered
		st.ImputedValues += ev.ImputedValues
		if err != nil || ev.DeadlineExceeded || ev.SpentSeconds > deadline {
			st.Violations++
		}
		if err != nil {
			st.NoResult++
		}
		if err != nil || ev.Rung != adaptive.RungFull {
			st.Degraded++
		}
		lat.Add(ev.SpentSeconds)
		rt.Tick()
		if err == nil {
			rollback, swap := rt.Fold(ev.DeadlineExceeded, ev.SpentSeconds)
			for _, ch := range [2]*adaptive.Change{rollback, swap} {
				if ch != nil {
					active = ch.System
				}
			}
		}
	}
	ns, _ := active.Placement.Counts()
	st.FinalSensorCells = ns
	st.LatencyP50S = lat.Quantile(0.5)
	st.LatencyP99S = lat.Quantile(0.99)
	return st, nil
}
