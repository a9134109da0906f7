package chaos

import (
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
//     back when the storm clears. This variant is served by
//     adaptive.TierRuntime, the runtime an armed xpro.TierPlan serves
//     through; every variant's per-hop links come from it.
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

// newHubStormRuntime arms one variant's fresh runtime over ts: the
// shared k-tier runtime with the storm schedule merged onto both hops
// touching the hub (tier 1), clean per-hop loss streams, and the
// battery's policy and ladder. It returns the storm schedule too, for
// the battery's storm statistics.
func newHubStormRuntime(ts *xsystem.TieredSystem, cfg HubStormConfig) (*adaptive.TierRuntime, *faults.Plan, error) {
	cfg.fill()
	ev := ts.EventsPerSecond()
	if !(ev > 0) {
		return nil, nil, fmt.Errorf("chaos: tiered system has no event rate")
	}
	period := 1 / ev
	deadline := cfg.DeadlineFactor * tieredLimit(ts)
	if math.IsNaN(deadline) || math.IsInf(deadline, 0) || deadline <= 0 {
		return nil, nil, fmt.Errorf("chaos: deadline %v is not a positive finite budget", deadline)
	}
	storm := hubStormPlan(cfg, float64(cfg.Events)*period)
	rt, err := adaptive.NewTierRuntime(ts, adaptive.TierConfig{
		Policy: hubStormPolicy(deadline, period), Storm: storm, HubTier: 1,
		Seed: cfg.Seed, Framing: cfg.Framing, Collapse: hubStormCollapse(period), Period: period,
	})
	return rt, storm, err
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
	rt, storm, err := newHubStormRuntime(ts, cfg)
	if err != nil {
		return v, err
	}
	opt := rt.Options()
	clock, deadline := opt.Clock, opt.Policy.Deadline
	period := 1 / ts.EventsPerSecond()
	full, sensor := rt.Rung(rt.FullCap()), rt.Rung(0)
	sensing := ts.Tiered.SensingEnergy
	for i := 0; i < cfg.Events; i++ {
		seg := segs[i%len(segs)]
		stormNow := storm.At(clock.Now()).HubDown
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
				fout, ferr := sensor.ClassifyOver(seg, opt)
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

// hubStormTiered drives the tier-collapse variant through the shared
// k-tier runtime.
func hubStormTiered(ts *xsystem.TieredSystem, segs []biosig.Segment, cfg HubStormConfig) (HubStormVariant, error) {
	v := HubStormVariant{Name: "tiered"}
	rt, storm, err := newHubStormRuntime(ts, cfg)
	if err != nil {
		return v, err
	}
	full, deadline := rt.FullCap(), rt.Options().Policy.Deadline
	for i := 0; i < cfg.Events; i++ {
		stormNow := storm.At(rt.Options().Clock.Now()).HubDown
		ev, err := rt.Serve(segs[i%len(segs)])
		if err != nil {
			return v, err
		}
		degraded := ev.Cap != full || !ev.Complete
		deadlined := ev.DeadlineExceeded || ev.SpentSeconds > deadline
		v.Events++
		if stormNow {
			v.StormEvents++
		}
		if deadlined {
			v.Violations++
		}
		if degraded {
			v.Degraded++
		}
		v.SensorEnergyJ += ev.SensorEnergy
		v.Log = append(v.Log, fmt.Sprintf(
			"tiered %03d storm=%t cap=%d probe=%t noresult=false degraded=%t deadlined=%t spent=%.17g energy=%.17g",
			i, stormNow, int(ev.Cap), ev.Probing, degraded, deadlined, ev.SpentSeconds, ev.SensorEnergy))
	}
	st := rt.Snapshot()
	v.Collapses, v.Recoveries, v.Rollbacks = st.Collapses, st.Recoveries, st.Rollbacks
	return v, nil
}
