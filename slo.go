package xpro

import (
	"sync"

	"xpro/internal/admit"
	"xpro/internal/telemetry"
)

// This file is the SLO layer: windowed latency/energy quantiles over
// mergeable sketches, per-rung degradation accounting, and the cheap
// point-in-time reports the /slo and /healthz endpoints serve. Every
// quantile series rides the engine's modeled clock, so a seeded fault
// run reproduces the same SLO numbers bit-identically; fleet-wide
// quantiles are per-engine window sketches merged at query time (not
// averages of averages). Reports are memoized behind the same
// serving-epoch discipline Network's shared-resource view uses, so
// polling per request costs a few atomic loads when nothing changed.

// degradeModes enumerates every rung once, in ladder order, for
// per-rung breakdowns.
var degradeModes = []DegradeMode{
	ModeFull, ModePartial, ModeSuspectData,
	ModeSensorLocal, ModeFallbackSensor, ModeFallbackSoftware,
}

// sloHandles are the engine's pre-resolved SLO metric handles: the hot
// classify path observes through these pointers instead of re-walking
// the registry maps (and re-rendering label strings) per event.
type sloHandles struct {
	latency *telemetry.Quantile // modeled per-event latency (s)
	energy  *telemetry.Quantile // modeled sensor energy per event (J)
	imputed *telemetry.Quantile // imputed values per event

	classifyTotal   *telemetry.Counter
	errorsTotal     *telemetry.Counter
	qualityRejected *telemetry.Counter
	degraded        map[DegradeMode]*telemetry.Counter

	// mu guards the memoized report and its scratch sketches.
	mu       sync.Mutex
	memo     SLOReport
	memoKey  sloKey
	memoOK   bool
	scratch  *telemetry.Sketch
	escratch *telemetry.Sketch
}

// sloKey is the staleness key of a memoized engine SLO report: the
// serving epoch plus each quantile series' observation generation.
type sloKey struct {
	epoch, latGen, enGen uint64
}

func newSLOHandles(reg *telemetry.Registry, windowSeconds float64) *sloHandles {
	h := &sloHandles{
		latency: reg.Quantile("xpro_classify_latency_seconds",
			"Modeled per-event classify latency (windowed quantile sketch on the modeled clock).",
			windowSeconds),
		energy: reg.Quantile("xpro_event_energy_joules",
			"Modeled sensor-node energy per classification event (windowed quantile sketch).",
			windowSeconds),
		imputed: reg.Quantile("xpro_imputed_values",
			"Crossed values imputed per event after frame loss (windowed quantile sketch).",
			windowSeconds),
		classifyTotal: reg.Counter("xpro_classify_total",
			"Segments classified through the partitioned pipeline."),
		errorsTotal: reg.Counter("xpro_classify_errors_total",
			"Classify calls that returned an error."),
		qualityRejected: reg.Counter("xpro_quality_rejected_total",
			"Events the signal-quality admission gate rejected or quarantined."),
		degraded: make(map[DegradeMode]*telemetry.Counter, len(degradeModes)),
		scratch:  telemetry.NewSketch(0),
		escratch: telemetry.NewSketch(0),
	}
	for _, m := range degradeModes {
		if m == ModeFull {
			continue // full-path answers are counted by classifyTotal
		}
		h.degraded[m] = reg.Counter(telemetry.WithLabels("xpro_classify_degraded_total",
			map[string]string{"mode": m.String()}),
			"Classifications served through a degraded path, by mode.")
	}
	return h
}

// observe records one finished event (answered or quarantined) on the
// windowed quantile series at modeled time now.
func (h *sloHandles) observe(now, latencySeconds, energyJoules float64, imputedValues int) {
	h.latency.Observe(now, latencySeconds)
	h.energy.Observe(now, energyJoules)
	h.imputed.Observe(now, float64(imputedValues))
}

// SLOReport is the point-in-time service-level summary of one engine:
// latency and energy quantiles over the rolling window, and the
// degradation-ladder accounting since start. Latency and energy ride
// the engine's modeled clock, so the window is modeled seconds (see
// Config.SLOWindowSeconds), and a seeded fault run reproduces the same
// report deterministically.
type SLOReport struct {
	// WindowSeconds is the rolling window the quantiles cover.
	WindowSeconds float64
	// WindowEvents / TotalEvents count observed events (answered plus
	// quarantined) inside the window and since start.
	WindowEvents uint64
	TotalEvents  uint64

	// Windowed modeled classify latency quantiles (seconds).
	LatencyP50Seconds float64
	LatencyP95Seconds float64
	LatencyP99Seconds float64

	// EnergyPerEventJoules is the mean modeled sensor energy per event
	// over the window; EnergyP99Joules its windowed 99th percentile.
	EnergyPerEventJoules float64
	EnergyP99Joules      float64

	// DegradedRatio is degraded answers / all answers (since start).
	DegradedRatio float64
	// SuspectRate is quarantined events / all observed events.
	SuspectRate float64

	// Modes counts events per degradation rung since start, keyed by
	// DegradeMode.String() ("full", "partial", "suspect-data", ...).
	Modes map[string]uint64

	// Breaker is the circuit breaker state ("closed", "half-open",
	// "open"); empty on an engine without a Resilience policy.
	Breaker string

	// Live is false while the subject's node is inside a node-crash or
	// reboot fault window (events fail fast with ErrNodeDown). Engines
	// without a Resilience policy are always live.
	Live bool
	// Crashes / Recoveries count node-down windows entered and rejoined
	// on the modeled timeline.
	Crashes    uint64
	Recoveries uint64
	// LastCheckpointAgeSeconds is the modeled time since the engine
	// last wrote a durable checkpoint — the crash-recovery staleness
	// bound: a crash now loses at most the journal records written
	// since. -1 when the engine has never checkpointed (or has no
	// resilience layer).
	LastCheckpointAgeSeconds float64

	// BrownedOut is true while the fleet brownout controller forces
	// this engine onto its cheap rung (see ServeOptions.Overload).
	BrownedOut bool

	// Hops is per-hop liveness of the engine's armed tier plan
	// (TierPlan.Arm), hop h connecting tier h to h+1; nil without one.
	// Like the recovery fields it is patched fresh on every call.
	Hops []HopSLO
}

// key returns the current staleness key (cheap: three atomic-ish
// reads).
func (e *Engine) sloCurrentKey() sloKey {
	return sloKey{
		epoch:  e.generation(),
		latGen: e.slo.latency.Gen(),
		enGen:  e.slo.energy.Gen(),
	}
}

// SLOReport computes the engine's service-level summary. The report is
// memoized behind the serving epoch and the quantile series'
// generations, so polling it per request costs a key comparison and a
// small map copy when no event has landed since the last call.
func (e *Engine) SLOReport() SLOReport {
	h := e.slo
	key := e.sloCurrentKey()
	h.mu.Lock()
	defer h.mu.Unlock()
	var rep SLOReport
	if h.memoOK && h.memoKey == key {
		rep = h.memo.withCopiedModes()
	} else {
		rep = e.buildSLOLocked()
		h.memo, h.memoKey, h.memoOK = rep, key, true
		rep = rep.withCopiedModes()
	}
	// The recovery fields are patched outside the memo: a checkpoint
	// write moves LastCheckpointAgeSeconds without landing an event, so
	// the staleness key cannot see it. recoveryStatus takes r.mu under
	// h.mu — the classify path never takes h.mu, so the order is safe.
	rep.Live, rep.LastCheckpointAgeSeconds = true, -1
	if e.res != nil {
		rep.Live, rep.Crashes, rep.Recoveries, rep.LastCheckpointAgeSeconds = e.res.recoveryStatus()
	}
	rep.BrownedOut = e.brownedOut()
	// Per-hop liveness moves with the armed tier plan's ladder, not
	// with engine events, so it bypasses the memo too. hopSLO takes
	// the plan's mu under h.mu — the plan's classify path never takes
	// h.mu, so the order is safe.
	if tp := e.tier.Load(); tp != nil {
		rep.Hops = tp.hopSLO()
	}
	return rep
}

// withCopiedModes returns the report with its own Modes map, so a
// cached report handed to one caller cannot be mutated under another.
func (r SLOReport) withCopiedModes() SLOReport {
	if r.Modes == nil {
		return r
	}
	m := make(map[string]uint64, len(r.Modes))
	for k, v := range r.Modes {
		m[k] = v
	}
	r.Modes = m
	return r
}

// buildSLOLocked assembles the report from the live series. Caller
// holds e.slo.mu.
func (e *Engine) buildSLOLocked() SLOReport {
	h := e.slo
	h.scratch.Reset()
	h.latency.MergeWindowTo(h.scratch)
	h.escratch.Reset()
	h.energy.MergeWindowTo(h.escratch)

	rep := SLOReport{
		WindowSeconds: h.latency.WindowSeconds(),
		WindowEvents:  h.scratch.Count(),
		TotalEvents:   h.latency.Count(),
	}
	lat, en := h.scratch, h.escratch
	if lat.Count() == 0 {
		// Nothing inside the window: answer from the cumulative series,
		// like Quantile.Query does.
		lat = h.latency.CumulativeSketch()
		en = h.energy.CumulativeSketch()
	}
	rep.LatencyP50Seconds = lat.Quantile(0.5)
	rep.LatencyP95Seconds = lat.Quantile(0.95)
	rep.LatencyP99Seconds = lat.Quantile(0.99)
	if n := en.Count(); n > 0 {
		rep.EnergyPerEventJoules = en.Sum() / float64(n)
	}
	rep.EnergyP99Joules = en.Quantile(0.99)

	answered := uint64(h.classifyTotal.Value())
	rejected := uint64(h.qualityRejected.Value())
	rep.Modes = make(map[string]uint64, len(degradeModes))
	var degradedTotal uint64
	for m, c := range h.degraded {
		v := uint64(c.Value())
		rep.Modes[m.String()] = v
		degradedTotal += v
	}
	rep.Modes[ModeSuspectData.String()] = rejected
	full := answered - degradedTotal
	if answered < degradedTotal { // races between counter reads
		full = 0
	}
	rep.Modes[ModeFull.String()] = full
	if answered > 0 {
		rep.DegradedRatio = float64(degradedTotal) / float64(answered)
	}
	if total := answered + rejected; total > 0 {
		rep.SuspectRate = float64(rejected) / float64(total)
	}
	if e.res != nil {
		rep.Breaker = e.res.rt.Breaker().State().String()
	}
	return rep
}

// Health is the liveness/degradation summary /healthz serves.
type Health struct {
	// Status is "ok", "degraded" or "down". An engine is down while its
	// node sits inside a node-crash/reboot fault window; degraded while
	// its circuit breaker is open, or when most recent answers came
	// through a degraded rung (DegradedRatio > 0.5) or were quarantined
	// (SuspectRate > 0.5). A network is degraded when any node is down.
	Status string
	// Breaker is the circuit breaker state (engines; empty for fleets
	// and engines without a Resilience policy).
	Breaker       string
	DegradedRatio float64
	SuspectRate   float64
	// WindowEvents counts events inside the rolling SLO window.
	WindowEvents uint64
	// Live is false while the node (for a network: any node) is inside
	// a node-down fault window.
	Live bool
	// Crashes / Recoveries count node-down windows entered and rejoined
	// (for a network: summed across nodes).
	Crashes    uint64
	Recoveries uint64
	// LastCheckpointAgeSeconds is the modeled age of the last durable
	// checkpoint, -1 when never checkpointed (for a network: the oldest
	// age across checkpointing nodes, -1 when none checkpoint).
	LastCheckpointAgeSeconds float64
	// BrownedOut is true while the fleet brownout controller holds
	// the engine (for a network: any engine) on its cheap rung. A
	// browned-out engine reports Status "degraded": it is serving,
	// but below full quality by design.
	BrownedOut bool
}

func healthOf(breaker string, degradedRatio, suspectRate float64, windowEvents uint64) Health {
	h := Health{
		Status:        "ok",
		Breaker:       breaker,
		DegradedRatio: degradedRatio,
		SuspectRate:   suspectRate,
		WindowEvents:  windowEvents,
		Live:          true,

		LastCheckpointAgeSeconds: -1,
	}
	if breaker == "open" || degradedRatio > 0.5 || suspectRate > 0.5 {
		h.Status = "degraded"
	}
	return h
}

// Health summarizes the engine's current serviceability — the /healthz
// payload. It reuses the memoized SLO report, so it is poll-cheap.
func (e *Engine) Health() Health {
	rep := e.SLOReport()
	h := healthOf(rep.Breaker, rep.DegradedRatio, rep.SuspectRate, rep.WindowEvents)
	h.Live, h.Crashes, h.Recoveries = rep.Live, rep.Crashes, rep.Recoveries
	h.LastCheckpointAgeSeconds = rep.LastCheckpointAgeSeconds
	if rep.BrownedOut {
		h.BrownedOut = true
		h.Status = "degraded"
	}
	// A dead hop on the armed tier plan means the engine is serving
	// from a collapsed rung: degraded, not down — tiers below the dead
	// hop still answer.
	for _, hop := range rep.Hops {
		if !hop.Live {
			h.Status = "degraded"
		}
	}
	if !h.Live {
		h.Status = "down"
	}
	return h
}

// NodeSLO is one node's slice of a fleet SLO report: the node's own
// SLO summary plus its battery position relative to the fleet
// bottleneck.
type NodeSLO struct {
	SLOReport
	// LifetimeHours is the node's modeled battery lifetime on its
	// currently effective system.
	LifetimeHours float64
	// HeadroomHours is how much longer this node lives than the fleet
	// bottleneck (0 for the bottleneck node itself).
	HeadroomHours float64
}

// NetworkSLOReport is the fleet-wide service-level summary: quantiles
// computed by merging every node's window sketch (a true fleet
// quantile, not an average of per-node quantiles), ladder accounting
// summed across nodes, and per-node battery headroom.
type NetworkSLOReport struct {
	WindowSeconds float64
	WindowEvents  uint64
	TotalEvents   uint64

	LatencyP50Seconds float64
	LatencyP95Seconds float64
	LatencyP99Seconds float64

	EnergyPerEventJoules float64
	EnergyP99Joules      float64

	DegradedRatio float64
	SuspectRate   float64
	Modes         map[string]uint64

	// BottleneckNode / BottleneckHours identify the battery-limiting
	// node (the fleet dies when its first node does).
	BottleneckNode  string
	BottleneckHours float64

	// LiveNodes counts nodes currently serving (not inside a node-down
	// fault window); Crashes / Recoveries sum the per-node crash
	// bookkeeping. Per-node liveness and checkpoint age live on each
	// NodeSLO's embedded SLOReport.
	LiveNodes  int
	Crashes    uint64
	Recoveries uint64

	// BrownedOut is true while the fleet brownout controller holds
	// every engine on its cheap rung; BrownedOutNodes counts engines
	// currently forced (all or none under the fleet-wide controller,
	// but reported per node so a half-applied transition is visible).
	// ShedsByClass counts admission refusals per priority class
	// ("batch", "interactive", "alert") since the fleet started. All
	// three are zero until Network.Serve runs with
	// ServeOptions.Overload; like the checkpoint ages they are
	// patched fresh on every call rather than memoized.
	BrownedOut      bool
	BrownedOutNodes int
	ShedsByClass    map[string]uint64

	Nodes map[string]NodeSLO
}

// sloCache memoizes the fleet SLO report behind every engine's sloKey.
type sloCache struct {
	keys []sloKey
	rep  *NetworkSLOReport
}

// SLOReport computes the fleet service-level summary. Like Report, it
// is memoized behind each engine's serving epoch and quantile
// generations: polling per request is a key sweep when no event landed
// anywhere.
func (n *Network) SLOReport() (NetworkSLOReport, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	keys := make([]sloKey, len(n.names))
	fresh := n.slo.rep != nil
	for i, name := range n.names {
		keys[i] = n.engines[name].sloCurrentKey()
		if fresh && keys[i] != n.slo.keys[i] {
			fresh = false
		}
	}
	if fresh {
		rep := n.slo.rep.copyForCaller()
		// Checkpoint ages can move without landing an event (an explicit
		// Checkpoint call resets them), which the staleness keys cannot
		// see — patch them fresh per node.
		for name, node := range rep.Nodes {
			if e := n.engines[name]; e.res != nil {
				_, _, _, age := e.res.recoveryStatus()
				node.LastCheckpointAgeSeconds = age
				rep.Nodes[name] = node
			}
		}
		n.patchOverloadLocked(&rep)
		return rep, nil
	}
	rep, err := n.buildSLOLocked()
	if err != nil {
		return NetworkSLOReport{}, err
	}
	n.slo.keys, n.slo.rep = keys, &rep
	out := rep.copyForCaller()
	n.patchOverloadLocked(&out)
	return out, nil
}

// patchOverloadLocked stamps the fleet overload fields onto a report
// copy. Shed counters move without bumping any engine's epoch (a shed
// never lands an event), so like the checkpoint ages they bypass the
// memo and are read fresh from the serving fleet on every call.
func (n *Network) patchOverloadLocked(rep *NetworkSLOReport) {
	for _, name := range n.names {
		if n.engines[name].brownedOut() {
			rep.BrownedOutNodes++
		}
	}
	fl := n.fleet.Load()
	if fl == nil || fl.admit == nil {
		return
	}
	rep.BrownedOut = fl.brown.Active()
	sheds := fl.admit.Sheds()
	rep.ShedsByClass = make(map[string]uint64, admit.NumClasses)
	for c := admit.Class(0); c < admit.Class(admit.NumClasses); c++ {
		rep.ShedsByClass[c.String()] = sheds[c]
	}
}

// copyForCaller hands out the memoized report with its own maps.
// ShedsByClass needs no copy here: patchOverloadLocked rebuilds it
// fresh on every call.
func (r NetworkSLOReport) copyForCaller() NetworkSLOReport {
	modes := make(map[string]uint64, len(r.Modes))
	for k, v := range r.Modes {
		modes[k] = v
	}
	r.Modes = modes
	nodes := make(map[string]NodeSLO, len(r.Nodes))
	for k, v := range r.Nodes {
		v.SLOReport = v.SLOReport.withCopiedModes()
		nodes[k] = v
	}
	r.Nodes = nodes
	return r
}

// buildSLOLocked assembles the fleet report. Caller holds n.mu.
func (n *Network) buildSLOLocked() (NetworkSLOReport, error) {
	nw, err := n.netLocked()
	if err != nil {
		return NetworkSLOReport{}, err
	}
	lifetimes, err := nw.NodeLifetimes()
	if err != nil {
		return NetworkSLOReport{}, err
	}
	bottleneck, bottleneckHours, err := nw.BottleneckNode()
	if err != nil {
		return NetworkSLOReport{}, err
	}

	rep := NetworkSLOReport{
		Modes:           make(map[string]uint64, len(degradeModes)),
		Nodes:           make(map[string]NodeSLO, len(n.names)),
		BottleneckNode:  bottleneck,
		BottleneckHours: bottleneckHours,
	}
	lat := telemetry.NewSketch(0)
	en := telemetry.NewSketch(0)
	var answered, rejected, degraded uint64
	for _, name := range n.names {
		e := n.engines[name]
		node := e.SLOReport()
		if node.Live {
			rep.LiveNodes++
		}
		rep.Crashes += node.Crashes
		rep.Recoveries += node.Recoveries
		if node.WindowSeconds > rep.WindowSeconds {
			rep.WindowSeconds = node.WindowSeconds
		}
		rep.TotalEvents += node.TotalEvents
		// Merge the node's windowed sketches into the fleet sketch: the
		// fleet p99 is the p99 of the union, not a mean of node p99s.
		e.slo.latency.MergeWindowTo(lat)
		e.slo.energy.MergeWindowTo(en)
		for m, v := range node.Modes {
			rep.Modes[m] += v
		}
		answered += uint64(e.slo.classifyTotal.Value())
		rejected += uint64(e.slo.qualityRejected.Value())
		for _, c := range e.slo.degraded {
			degraded += uint64(c.Value())
		}
		rep.Nodes[name] = NodeSLO{
			SLOReport:     node,
			LifetimeHours: lifetimes[name],
			HeadroomHours: lifetimes[name] - bottleneckHours,
		}
	}
	rep.WindowEvents = lat.Count()
	rep.LatencyP50Seconds = lat.Quantile(0.5)
	rep.LatencyP95Seconds = lat.Quantile(0.95)
	rep.LatencyP99Seconds = lat.Quantile(0.99)
	if c := en.Count(); c > 0 {
		rep.EnergyPerEventJoules = en.Sum() / float64(c)
	}
	rep.EnergyP99Joules = en.Quantile(0.99)
	if answered > 0 {
		rep.DegradedRatio = float64(degraded) / float64(answered)
	}
	if total := answered + rejected; total > 0 {
		rep.SuspectRate = float64(rejected) / float64(total)
	}
	return rep, nil
}

// Health summarizes fleet serviceability — the network /healthz
// payload. The fleet is degraded when its aggregate ratios are, when
// any node's breaker is open, or when any node is down inside a
// node-crash/reboot window (Live reports the latter; the fleet as a
// whole still serves its surviving subjects, so a down node degrades
// rather than downs the fleet).
func (n *Network) Health() Health {
	rep, err := n.SLOReport()
	if err != nil {
		return Health{Status: "degraded", LastCheckpointAgeSeconds: -1}
	}
	breaker := ""
	oldest := -1.0
	for _, name := range n.names {
		node, ok := rep.Nodes[name]
		if !ok {
			continue
		}
		if node.Breaker == "open" {
			breaker = "open"
		}
		if node.LastCheckpointAgeSeconds > oldest {
			oldest = node.LastCheckpointAgeSeconds
		}
	}
	h := healthOf(breaker, rep.DegradedRatio, rep.SuspectRate, rep.WindowEvents)
	h.Crashes, h.Recoveries = rep.Crashes, rep.Recoveries
	h.LastCheckpointAgeSeconds = oldest
	if rep.BrownedOut || rep.BrownedOutNodes > 0 {
		h.BrownedOut = true
		h.Status = "degraded"
	}
	if rep.LiveNodes < len(rep.Nodes) {
		h.Live = false
		h.Status = "degraded"
	}
	return h
}
