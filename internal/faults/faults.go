// Package faults models the failure modes of a deployed XPro system
// and the policies that ride them out. The paper's evaluation assumes
// an infallible body-area link and a healthy sensor node; a wearable in
// the field sees packet-loss bursts, hard link outages, battery
// brownouts and aggregator stalls. This package makes those faults
// deterministic and injectable:
//
//   - a Plan is a seeded, reproducible schedule of fault windows on a
//     virtual timeline measured in modeled seconds;
//   - a Clock is the deterministic time source the runtime advances as
//     events flow (no wall time, so runs replay bit-identically);
//   - a Link wraps a wireless transceiver model into a fault-injected
//     transport for the functional pipeline;
//   - Breaker, Backoff and Policy implement the resilience side:
//     circuit breaking, capped exponential retry and per-event deadline
//     budgets.
package faults

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Clock is a deterministic virtual clock in modeled seconds. The
// runtime advances it as events are processed; fault windows and
// breaker cooldowns are measured against it, never against wall time,
// so a seeded run replays identically.
type Clock struct{ t float64 }

// Now returns the current modeled time.
func (c *Clock) Now() float64 { return c.t }

// Advance moves the clock forward by dt seconds (negative dt is
// ignored: modeled time never runs backwards).
func (c *Clock) Advance(dt float64) {
	if dt > 0 {
		c.t += dt
	}
}

// Restore sets the clock to an absolute modeled time, for crash
// recovery only: a checkpointed run resumes at the instant the journal
// recorded, so the replayed timeline is bit-identical to an
// uninterrupted one. Non-finite or negative times are ignored — a
// corrupt record cannot run time backwards past zero or to NaN.
func (c *Clock) Restore(t float64) {
	if isFinite(t) && t >= 0 {
		c.t = t
	}
}

// Kind classifies a fault window.
type Kind int

const (
	// LossBurst raises the link's packet-loss probability to
	// Window.Loss for the duration of the window.
	LossBurst Kind = iota
	// LinkOutage takes the link hard down: every send fails
	// immediately.
	LinkOutage
	// Brownout models a sensor battery sag below the cell array's
	// operating threshold: sensing continues but in-sensor compute is
	// unavailable.
	Brownout
	// AggStall models the aggregator CPU being preempted (GC pause,
	// thermal throttle, competing app): aggregator cells cannot start
	// during the window.
	AggStall
	// BitFlip raises the link's residual bit-error rate to Window.Rate
	// (probability per payload bit) for the duration of the window:
	// packets are delivered, but carrying flipped bits. A framed
	// transport detects them by CRC and retries; an unframed transport
	// delivers the corruption into the pipeline.
	BitFlip
	// Duplicate delivers each frame a second time with probability
	// Window.Rate. A framed receiver drops the copy by sequence number
	// (still paying its air time); an unframed receiver smears the copy
	// into the next frame's slot.
	Duplicate
	// Reorder swaps each adjacent frame pair with probability
	// Window.Rate. A framed receiver reassembles by sequence number; an
	// unframed receiver decodes the swapped blocks in place.
	Reorder
	// NodeCrash models the sensor node losing power without warning
	// (harvest dip, battery pull): for the window the node is entirely
	// down — no sensing, no compute, no link — and its volatile state
	// (breaker, estimator, RNG cursor, counters) is wiped. A node with a
	// durable checkpoint rejoins warm; one without rejoins amnesiac.
	NodeCrash
	// Reboot models an ordered restart (watchdog, firmware update): the
	// node is down for the window exactly like NodeCrash, but it sees
	// the shutdown coming and may flush a final checkpoint first.
	Reboot
	// DemandSurge is not a hardware fault but a load fault: a flash
	// crowd multiplies the event arrival rate by Window.Rate (≥ 1)
	// for the duration of the window. The classify pipeline ignores
	// it; arrival processes (the chaos soak harnesses, the event
	// simulator's drivers) read it through State.Surge to burst their
	// offered load, so overload and correlated faults can be
	// scheduled on the same seeded timeline.
	DemandSurge
	// HubStorm models the infrastructure node on the far side of a hop
	// going dark — a hub rebooting, a base station losing power — as
	// opposed to the radio channel itself failing. On the link it
	// behaves like a hard outage (every send fails immediately), but it
	// is a *shared* fault: every subject whose traffic transits the
	// same hub sees the identical windows, so fleet harnesses derive
	// hub-storm schedules from a per-hub seed (HubStormPlan) rather
	// than a per-subject one.
	HubStorm
)

func (k Kind) String() string {
	switch k {
	case LossBurst:
		return "loss-burst"
	case LinkOutage:
		return "link-outage"
	case Brownout:
		return "brownout"
	case AggStall:
		return "agg-stall"
	case BitFlip:
		return "bit-flip"
	case Duplicate:
		return "duplicate"
	case Reorder:
		return "reorder"
	case NodeCrash:
		return "node-crash"
	case Reboot:
		return "reboot"
	case DemandSurge:
		return "demand-surge"
	case HubStorm:
		return "hub-storm"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Window is one fault interval, half-open [Start, End) in modeled
// seconds. Loss is only meaningful for LossBurst windows; Rate is only
// meaningful for BitFlip (bit-error probability per payload bit),
// Duplicate and Reorder (per-frame probability) windows.
//
// Overlapping windows of the same kind MERGE: the fault state at any
// instant takes the maximum Loss/Rate over the windows covering it (and
// the logical OR of the boolean kinds), exactly as At computes it. A
// plan is free to layer a long low-grade window under short severe
// spikes; Validate accepts the overlap.
type Window struct {
	Kind  Kind
	Start float64
	End   float64
	Loss  float64
	Rate  float64
}

// Plan is a deterministic schedule of fault windows. The zero value is
// a fault-free plan.
type Plan struct {
	Windows []Window
}

// Validate rejects malformed windows: NaN/Inf bounds, inverted
// intervals and probabilities outside [0, 1]. Overlapping same-kind
// windows are valid — they merge, see Window.
func (p *Plan) Validate() error {
	if p == nil {
		return nil
	}
	for i, w := range p.Windows {
		if !isFinite(w.Start) || !isFinite(w.End) || w.Start < 0 || w.End <= w.Start {
			return fmt.Errorf("faults: window %d has invalid interval [%v, %v)", i, w.Start, w.End)
		}
		if w.Kind == LossBurst && !(w.Loss >= 0 && w.Loss <= 1) { // NaN fails both comparisons
			return fmt.Errorf("faults: window %d has loss %v outside [0,1]", i, w.Loss)
		}
		switch w.Kind {
		case BitFlip, Duplicate, Reorder:
			if !(w.Rate >= 0 && w.Rate <= 1) { // NaN fails both comparisons
				return fmt.Errorf("faults: window %d has rate %v outside [0,1]", i, w.Rate)
			}
		case DemandSurge:
			if !(w.Rate >= 1) || !isFinite(w.Rate) { // NaN fails the comparison
				return fmt.Errorf("faults: window %d has surge multiplier %v below 1", i, w.Rate)
			}
		}
	}
	return nil
}

// State is the aggregate fault condition at one instant.
type State struct {
	// LinkDown is true inside a LinkOutage window.
	LinkDown bool
	// Loss is the packet-loss probability contributed by LossBurst
	// windows (the maximum of overlapping bursts).
	Loss float64
	// Brownout is true inside a Brownout window.
	Brownout bool
	// AggStall is true inside an AggStall window.
	AggStall bool
	// BitErrorRate is the residual bit-error probability per payload
	// bit contributed by BitFlip windows (maximum of overlaps).
	BitErrorRate float64
	// DupRate is the per-frame duplication probability contributed by
	// Duplicate windows (maximum of overlaps).
	DupRate float64
	// ReorderRate is the adjacent-pair swap probability contributed by
	// Reorder windows (maximum of overlaps).
	ReorderRate float64
	// Surge is the arrival-rate multiplier contributed by DemandSurge
	// windows (maximum of overlaps), 0 when none is active — callers
	// treat anything below 1 as the nominal rate.
	Surge float64
	// HubDown is true inside a HubStorm window: the far end of the hop
	// is dark, so the link is unusable exactly as in a LinkOutage —
	// but the cause is the infrastructure node, not the air.
	HubDown bool
	// NodeDown is true inside a NodeCrash or Reboot window: the node is
	// off the air entirely and serves nothing.
	NodeDown bool
	// Graceful is true when the outage is an ordered Reboot (and no
	// harsher NodeCrash window overlaps it): the node had the chance to
	// flush a checkpoint before going dark.
	Graceful bool
}

// At returns the fault state at modeled time t. A nil plan is
// fault-free.
func (p *Plan) At(t float64) State {
	var s State
	if p == nil {
		return s
	}
	var crash, reboot bool
	for _, w := range p.Windows {
		if t < w.Start || t >= w.End {
			continue
		}
		switch w.Kind {
		case NodeCrash:
			crash = true
		case Reboot:
			reboot = true
		case LossBurst:
			if w.Loss > s.Loss {
				s.Loss = w.Loss
			}
		case LinkOutage:
			s.LinkDown = true
		case Brownout:
			s.Brownout = true
		case AggStall:
			s.AggStall = true
		case BitFlip:
			if w.Rate > s.BitErrorRate {
				s.BitErrorRate = w.Rate
			}
		case Duplicate:
			if w.Rate > s.DupRate {
				s.DupRate = w.Rate
			}
		case Reorder:
			if w.Rate > s.ReorderRate {
				s.ReorderRate = w.Rate
			}
		case DemandSurge:
			if w.Rate > s.Surge {
				s.Surge = w.Rate
			}
		case HubStorm:
			s.HubDown = true
		}
	}
	// A crash overlapping a reboot is still a crash: the harsher outage
	// wins, and the node gets no chance to checkpoint.
	s.NodeDown = crash || reboot
	s.Graceful = reboot && !crash
	return s
}

// DownUntil returns when every node-down window covering time t ends —
// the earliest instant the node can rejoin — or t itself when the node
// is up.
func (p *Plan) DownUntil(t float64) float64 {
	end := p.Until(t, NodeCrash)
	if r := p.Until(t, Reboot); r > end {
		end = r
	}
	return end
}

// LinkDownUntil returns when every window covering time t that takes
// the link hard down — LinkOutage on the air, HubStorm on the far end —
// ends, or t itself when the link is up.
func (p *Plan) LinkDownUntil(t float64) float64 {
	end := p.Until(t, LinkOutage)
	if h := p.Until(t, HubStorm); h > end {
		end = h
	}
	return end
}

// Until returns when the active windows of kind k covering time t end
// (the latest end among them), or t itself when none is active — the
// earliest instant the fault is guaranteed over.
func (p *Plan) Until(t float64, k Kind) float64 {
	end := t
	if p == nil {
		return end
	}
	for _, w := range p.Windows {
		if w.Kind == k && t >= w.Start && t < w.End && w.End > end {
			end = w.End
		}
	}
	return end
}

// Horizon returns the end of the last window (0 for an empty plan).
func (p *Plan) Horizon() float64 {
	h := 0.0
	if p == nil {
		return h
	}
	for _, w := range p.Windows {
		if w.End > h {
			h = w.End
		}
	}
	return h
}

// PlanConfig shapes RandomPlan's seeded schedule.
type PlanConfig struct {
	// Horizon is the timeline length in modeled seconds.
	Horizon float64
	// Outages, Bursts, Brownouts, Stalls count the windows of each
	// kind to scatter over the horizon.
	Outages, Bursts, Brownouts, Stalls int
	// MeanDuration is the mean window length (exponentially
	// distributed, clamped to the horizon).
	MeanDuration float64
	// BurstLoss is the packet-loss probability inside LossBurst
	// windows (default 0.5).
	BurstLoss float64
	// Flips, Dups, Reorders count the corruption windows to scatter;
	// FlipRate, DupRate, ReorderRate set their Window.Rate (defaults
	// 1e-3, 0.2, 0.2).
	Flips, Dups, Reorders          int
	FlipRate, DupRate, ReorderRate float64
	// Crashes, Reboots count the node-down windows to scatter: hard
	// power losses and ordered restarts respectively.
	Crashes, Reboots int
	// Surges counts DemandSurge windows to scatter; SurgeFactor sets
	// their arrival-rate multiplier (default 10).
	Surges      int
	SurgeFactor float64
	// HubStorms counts HubStorm windows to scatter — hub-side dark
	// periods that take the hop down for every subject behind the hub.
	HubStorms int
}

// RandomPlan scatters fault windows over the horizon, deterministically
// from seed. The same seed always produces the identical plan.
func RandomPlan(seed int64, cfg PlanConfig) *Plan {
	if cfg.Horizon <= 0 {
		cfg.Horizon = 60
	}
	if cfg.MeanDuration <= 0 {
		cfg.MeanDuration = cfg.Horizon / 20
	}
	if cfg.BurstLoss <= 0 {
		cfg.BurstLoss = 0.5
	}
	if cfg.FlipRate <= 0 {
		cfg.FlipRate = 1e-3
	}
	if cfg.DupRate <= 0 {
		cfg.DupRate = 0.2
	}
	if cfg.ReorderRate <= 0 {
		cfg.ReorderRate = 0.2
	}
	if cfg.SurgeFactor < 1 {
		cfg.SurgeFactor = 10
	}
	rng := rand.New(rand.NewSource(seed))
	p := &Plan{}
	add := func(kind Kind, n int, loss, rate float64) {
		for i := 0; i < n; i++ {
			dur := rng.ExpFloat64() * cfg.MeanDuration
			if dur > cfg.Horizon/2 {
				dur = cfg.Horizon / 2
			}
			if dur < cfg.MeanDuration/10 {
				dur = cfg.MeanDuration / 10
			}
			start := rng.Float64() * (cfg.Horizon - dur)
			p.Windows = append(p.Windows, Window{Kind: kind, Start: start, End: start + dur, Loss: loss, Rate: rate})
		}
	}
	add(LinkOutage, cfg.Outages, 0, 0)
	add(LossBurst, cfg.Bursts, cfg.BurstLoss, 0)
	add(Brownout, cfg.Brownouts, 0, 0)
	add(AggStall, cfg.Stalls, 0, 0)
	// Corruption windows draw after the classical kinds, so plans that
	// request none replay the exact pre-existing seeded schedules.
	add(BitFlip, cfg.Flips, 0, cfg.FlipRate)
	add(Duplicate, cfg.Dups, 0, cfg.DupRate)
	add(Reorder, cfg.Reorders, 0, cfg.ReorderRate)
	// Node-down windows draw last for the same reason: a config that
	// requests none replays the exact pre-existing seeded schedules.
	add(NodeCrash, cfg.Crashes, 0, 0)
	add(Reboot, cfg.Reboots, 0, 0)
	// Demand-surge windows draw after everything else, again so plans
	// that request none replay the exact pre-existing schedules.
	add(DemandSurge, cfg.Surges, 0, cfg.SurgeFactor)
	// Hub-storm windows draw last of all, preserving every earlier
	// kind's seeded schedule for configs that request none.
	add(HubStorm, cfg.HubStorms, 0, 0)
	sort.SliceStable(p.Windows, func(i, j int) bool { return p.Windows[i].Start < p.Windows[j].Start })
	return p
}

// ScenarioNames lists the named scenarios Scenario accepts.
func ScenarioNames() []string {
	return []string{"outage", "bursty", "brownout", "stall", "flaky", "corrupt", "garbled", "reboot-storm", "flash-crowd", "hub-storm"}
}

// Scenario builds a named fault plan over the given horizon, seeded
// deterministically:
//
//	outage    one hard link outage covering the middle third
//	bursty    recurring loss bursts (70% loss) over the run
//	brownout  one sensor brownout covering the middle third
//	stall     one aggregator stall covering the middle third
//	flaky     a seeded random mix of the four classical kinds
//	corrupt      one 10⁻³ bit-flip burst covering the middle third
//	garbled      a seeded mix of bit flips, duplication and reordering
//	reboot-storm seeded node crashes and ordered reboots over a lossy
//	             background — the node dies, loses volatile state and
//	             rejoins, repeatedly
//	flash-crowd  seeded demand surges (10x arrival rate) over loss
//	             bursts: overload and link faults arriving correlated
//	hub-storm    seeded hub dark periods over a lossy background —
//	             the hop's far end keeps dying and coming back,
//	             correlated across every subject behind the hub
func Scenario(name string, seed int64, horizon float64) (*Plan, error) {
	if horizon <= 0 || !isFinite(horizon) {
		return nil, fmt.Errorf("faults: scenario horizon %v must be positive and finite", horizon)
	}
	third := horizon / 3
	switch name {
	case "outage":
		return &Plan{Windows: []Window{{Kind: LinkOutage, Start: third, End: 2 * third}}}, nil
	case "brownout":
		return &Plan{Windows: []Window{{Kind: Brownout, Start: third, End: 2 * third}}}, nil
	case "stall":
		return &Plan{Windows: []Window{{Kind: AggStall, Start: third, End: 2 * third}}}, nil
	case "bursty":
		n := int(horizon / 10)
		if n < 2 {
			n = 2
		}
		return RandomPlan(seed, PlanConfig{Horizon: horizon, Bursts: n, MeanDuration: horizon / 12, BurstLoss: 0.7}), nil
	case "flaky":
		return RandomPlan(seed, PlanConfig{Horizon: horizon, Outages: 1, Bursts: 2, Brownouts: 1, Stalls: 1, MeanDuration: horizon / 15, BurstLoss: 0.6}), nil
	case "corrupt":
		return &Plan{Windows: []Window{{Kind: BitFlip, Start: third, End: 2 * third, Rate: 1e-3}}}, nil
	case "garbled":
		return RandomPlan(seed, PlanConfig{Horizon: horizon, MeanDuration: horizon / 10,
			Flips: 2, FlipRate: 2e-3, Dups: 1, DupRate: 0.15, Reorders: 1, ReorderRate: 0.15}), nil
	case "reboot-storm":
		return RandomPlan(seed, PlanConfig{Horizon: horizon, MeanDuration: horizon / 25,
			Bursts: 2, BurstLoss: 0.5, Crashes: 3, Reboots: 2}), nil
	case "flash-crowd":
		return RandomPlan(seed, PlanConfig{Horizon: horizon, MeanDuration: horizon / 8,
			Bursts: 2, BurstLoss: 0.6, Surges: 3, SurgeFactor: 10}), nil
	case "hub-storm":
		return RandomPlan(seed, PlanConfig{Horizon: horizon, MeanDuration: horizon / 12,
			Bursts: 2, BurstLoss: 0.4, HubStorms: 3}), nil
	default:
		return nil, fmt.Errorf("faults: unknown scenario %q (have %v)", name, ScenarioNames())
	}
}

func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
