package adaptive

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

	"xpro/internal/partition"
	"xpro/internal/telemetry"
	"xpro/internal/xsystem"
)

// Decision is one entry of the controller's re-cut log: a hot swap to
// a better cut, or a probation rollback to the previous one. The log
// is fully determined by the fault-plan seed, so two runs over the
// same plan produce identical decision sequences — the determinism
// contract the chaos harness asserts.
type Decision struct {
	// At is the modeled time of the decision.
	At float64
	// Kind is "swap" or "rollback".
	Kind string
	// Loss / Outage are the channel estimate at decision time.
	Loss, Outage float64
	// From / To are the placements before and after.
	From, To partition.Placement
	// FromEnergy / ToEnergy are the per-event sensor energies of the
	// two cuts priced under the effective (estimated) channel.
	FromEnergy, ToEnergy float64
}

func (d Decision) String() string {
	fs, _ := d.From.Counts()
	ts, _ := d.To.Counts()
	return fmt.Sprintf("%s@%.2fs loss=%.2f outage=%.2f sensor-cells %d→%d energy %.3g→%.3g",
		d.Kind, d.At, d.Loss, d.Outage, fs, ts, d.FromEnergy, d.ToEnergy)
}

// Change is what the controller wants the runtime to install: a copy
// of the reference system running under the new placement. The caller
// stores System atomically and the swap is live for the next event.
type Change struct {
	// Kind is "swap" or "rollback".
	Kind string
	// Placement is the newly active cut.
	Placement partition.Placement
	// System executes the same trained pipeline under Placement.
	System *xsystem.System
}

// Controller is the hot-swap re-cut loop. It owns the channel
// estimator, re-runs the delay-constrained generator against the
// estimated channel, and applies hysteresis so the cut moves only when
// the channel has genuinely shifted: a minimum dwell time between
// changes, a minimum relative energy improvement, and a probation
// window on every fresh cut with automatic rollback on a delay
// violation.
//
// The controller is not safe for concurrent use; the engine serializes
// events through it, like the Breaker.
type Controller struct {
	cfg Config
	est *Estimator
	// sys is the pristine reference system: its placement is the
	// static cut, its link the datasheet channel. All candidate cuts
	// are validated against its clean delay model.
	sys   *xsystem.System
	limit float64
	m     *telemetry.Registry

	active     partition.Placement
	prev       partition.Placement // non-nil while on probation
	prevSys    *xsystem.System
	lastChange float64
	probation  int
	// violRate is the EWMA deadline-violation rate of recent events;
	// probation compares the fresh cut against it rather than against
	// zero, so ambient chaos the old cut was already suffering does
	// not shoot down a swap that improves on it.
	violRate  float64
	probViol  int
	probLimit int
	decisions []Decision

	// floors memoizes certified lower bounds on the λ = 0 min-cut
	// energy M(f), sorted by inflation f. The first floor check anchors
	// it at f = 1 (see floorClears), so it is empty only before that
	// check. It only saves solves — the decisions are the same without
	// it — so it is not durable state.
	floors []floorPoint
	// floorGraph is the reference problem's s-t graph, built on the
	// first floor solve and re-priced by every later one; slack is the
	// solver's cut slack on it (see cutSlack).
	floorGraph *partition.CutGraph
	slack      float64

	evals, swaps, rollbacks *telemetry.Counter
	certified               *telemetry.Counter
	gaugeLoss, gaugeOutage  *telemetry.Gauge
	gaugeCells              *telemetry.Gauge
	evalWall                *telemetry.Quantile
}

// NewController builds a controller around a reference system. limit
// is the delay constraint T_XPro every candidate cut must meet under
// the clean delay model (the same limit the static generator used).
// metrics may be nil to use the process-default registry.
func NewController(cfg Config, sys *xsystem.System, limit float64, metrics *telemetry.Registry) (*Controller, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if sys == nil {
		return nil, errors.New("adaptive: nil reference system")
	}
	if !(limit > 0) { // rejects NaN too
		return nil, fmt.Errorf("adaptive: non-positive delay limit %v", limit)
	}
	est, err := NewEstimator(cfg.Alpha)
	if err != nil {
		return nil, err
	}
	if metrics == nil {
		metrics = telemetry.Default()
	}
	c := &Controller{
		cfg:    cfg,
		est:    est,
		sys:    sys,
		limit:  limit,
		m:      metrics,
		active: append(partition.Placement(nil), sys.Placement...),
		slack:  cutSlack(sys.Problem().View(), len(sys.Graph.Cells)),

		evals: metrics.Counter("xpro_recut_evals_total",
			"Re-cut evaluations performed by the adaptive controller."),
		swaps: metrics.Counter("xpro_recut_swaps_total",
			"Hot swaps of the active cut performed by the adaptive controller."),
		rollbacks: metrics.Counter("xpro_recut_rollbacks_total",
			"Probation rollbacks to the previous cut."),
		certified: metrics.Counter("xpro_recut_floor_certified_total",
			"Re-pricings the min-cut energy floor answered without the generator sweep."),
		gaugeLoss: metrics.Gauge("xpro_adaptive_est_loss",
			"EWMA per-attempt packet-loss estimate of the channel."),
		gaugeOutage: metrics.Gauge("xpro_adaptive_est_outage",
			"EWMA hard-outage estimate of the channel."),
		gaugeCells: metrics.Gauge("xpro_active_cut_sensor_cells",
			"Sensor-side cell count of the currently active cut."),
		evalWall: metrics.Quantile("xpro_recut_eval_wall_seconds",
			"Wall time of one re-cut evaluation (windowed quantile sketch on host uptime).", 0),
	}
	ns, _ := c.active.Counts()
	c.gaugeCells.Set(float64(ns))
	return c, nil
}

// Estimator exposes the controller's channel estimator so the runtime
// can feed it observations (outcomes, fault state, breaker
// transitions, send statistics).
func (c *Controller) Estimator() *Estimator { return c.est }

// Active returns the currently active placement. The returned slice is
// the controller's own copy; treat it as read-only.
func (c *Controller) Active() partition.Placement { return c.active }

// OnProbation reports whether the active cut is still on probation.
func (c *Controller) OnProbation() bool { return c.prev != nil }

// Decisions returns a copy of the re-cut decision log.
func (c *Controller) Decisions() []Decision {
	return append([]Decision(nil), c.decisions...)
}

// publishEstimate refreshes the estimator gauges.
func (c *Controller) publishEstimate(est Estimate) {
	c.gaugeLoss.Set(est.Loss)
	c.gaugeOutage.Set(est.Outage)
}

// Evaluate re-prices the partition problem under the estimated channel
// and returns a Change when a sufficiently better cut exists, nil when
// the active cut stands. Hysteresis applies: no change within the
// dwell window, while a fresh cut is on probation, or for an
// improvement below the threshold.
//
// A re-pricing skips the generator sweep when the min-cut energy floor
// proves no candidate can pass the swap test (see floorClears).
func (c *Controller) Evaluate(now float64) (*Change, error) {
	c.evals.Inc()
	est := c.est.Estimate()
	c.publishEstimate(est)
	if c.prev != nil || now-c.lastChange < c.cfg.MinDwellSeconds {
		return nil, nil
	}
	// Only full re-pricings land on the wall-time sketch; the dwell and
	// probation early-outs above are nanosecond no-ops that would drown
	// the signal.
	start := time.Now()
	defer func() { c.evalWall.ObserveWall(time.Since(start).Seconds()) }()

	// Re-price every cut under the estimated channel: same graph, same
	// hardware, derated link.
	prob := *c.sys.Problem()
	prob.Link = est.EffectiveModel(c.sys.Link, c.cfg.MaxInflation)
	activeE := prob.SensorEnergy(c.active)
	if c.floorClears(&prob, est.Inflation(c.cfg.MaxInflation), activeE*(1-c.cfg.ImprovementThreshold)) {
		c.certified.Inc()
		if testHookFloorCertified != nil {
			testHookFloorCertified(c, &prob, activeE)
		}
		return nil, nil
	}
	cand, candE := c.sweep(&prob, activeE)
	if cand == nil {
		return nil, nil
	}

	ns, err := c.sys.WithPlacement(cand)
	if err != nil {
		return nil, err
	}
	c.decisions = append(c.decisions, Decision{
		At: now, Kind: "swap", Loss: est.Loss, Outage: est.Outage,
		From: c.active, To: append(partition.Placement(nil), cand...),
		FromEnergy: activeE, ToEnergy: candE,
	})
	c.prev = c.active
	prevSys, err := c.sys.WithPlacement(c.active)
	if err != nil {
		return nil, err
	}
	c.prevSys = prevSys
	c.active = append(partition.Placement(nil), cand...)
	c.lastChange = now
	c.probation = c.cfg.ProbationEvents
	// The fresh cut may violate as often as the old one already did
	// (rounded up, plus one for luck) before it is rolled back.
	c.probViol = 0
	c.probLimit = int(c.violRate*float64(c.cfg.ProbationEvents)) + 1
	c.swaps.Inc()
	sc, _ := c.active.Counts()
	c.gaugeCells.Set(float64(sc))
	return &Change{Kind: "swap", Placement: c.active, System: ns}, nil
}

// sweep runs the delay-constrained generator on the re-priced problem
// and returns the cut to swap to with its energy, or nil when the
// active cut (priced at activeE) stands.
func (c *Controller) sweep(prob *partition.Problem, activeE float64) (partition.Placement, float64) {
	// Delay is re-priced too — a cut whose crossing payloads need too
	// many retransmissions to meet T_XPro on the channel as it is now
	// is not a candidate, however cheap its energy looks.
	esys := *c.sys
	esys.Link = prob.Link
	delayOf := func(p partition.Placement) float64 { return esys.DelayOf(p).Total() }
	var cand partition.Placement
	if res, err := prob.Generate(delayOf, c.limit); err == nil {
		cand = res.Placement
	}
	inSensor := partition.InSensor(c.sys.Graph)
	if cand == nil {
		// No cut meets T_XPro on this channel — the derated link is too
		// slow even for the single-end engines' residual traffic. The
		// in-sensor cut puts the least on the air and loses the least;
		// hold position there until the channel recovers.
		cand = inSensor
	} else if delayOf(inSensor) <= c.limit && prob.SensorEnergy(inSensor) < prob.SensorEnergy(cand) {
		// The sweep's λ ladder is finite; make sure the in-sensor engine
		// is always in the running when it is delay-feasible.
		cand = inSensor
	}
	if cand.Equal(c.active) {
		return nil, 0
	}
	candE := prob.SensorEnergy(cand)
	if candE >= activeE*(1-c.cfg.ImprovementThreshold) {
		return nil, 0
	}
	return cand, candE
}

// testHookFloorCertified, when set by a test, is called on every
// evaluation the energy floor answered, with the re-priced problem and
// the active cut's energy under it.
var testHookFloorCertified func(c *Controller, prob *partition.Problem, activeE float64)

// floorPoint is one solved inflation: lo is a certified lower bound on
// the λ = 0 min-cut energy M(f).
type floorPoint struct{ f, lo float64 }

// maxFloors caps the floor memo; a full memo still answers from its
// points and solves the rest without keeping them.
const maxFloors = 32

// floorRelSlack covers float rounding relative to the energies
// compared: summation in SensorEnergy, the solver's float flows and the
// chord arithmetic, each far below it.
const floorRelSlack = 1e-9

// cutSlack bounds how far the energy of the λ = 0 cut the solver
// returns can sit above the true minimum. Dinic stops once every
// residual is within eps = 1e-12 (internal/maxflow), so the returned
// cut's capacity exceeds the flow, itself at most the true minimum, by
// at most 2·eps per edge of positive capacity. The edge count bounds
// the λ = 0 s-t graph's: F→D, one edge per source reader and per cell,
// and per transfer group a tx and an rx edge plus two per consumer. (Its
// back-end delay edges F→cell carry λ·delay, zero at λ = 0.)
func cutSlack(v *partition.View, cells int) float64 {
	const eps = 1e-12
	edges := 1 + len(v.Readers) + cells
	for _, tg := range v.Groups {
		edges += 2 + 2*len(tg.Consumers)
	}
	return 2 * float64(edges) * eps
}

// floorClears reports whether the energy floor at inflation f is at
// least bar, so that no placement can cost less than bar under prob.
// At λ = 0 every s-t cut's capacity is a placement's sensor energy, so
// the min-cut energy M(f), less the solver's slack, is that floor.
//
// Every placement's energy is affine in f with non-negative
// coefficients (compute and sensing are fixed, link energies scale
// with f), so M(f), their minimum, is concave and non-decreasing.
// Memoized points therefore bound M(f) without a solve: the chord
// between the two points that bracket f lies below it, and so does the
// nearest point below f when f lies past the last one. Only when that
// bound falls short is M(f) solved, and the solved point memoized.
//
// The first check anchors the memo at f = 1, the reference problem
// itself: its link is the datasheet channel, which EffectiveModel
// returns at inflation 1. Inflation never returns less than 1, so
// from then on every f has a memo point at or below it, and a loss
// estimate falling to a new low is answered by the chord from the
// anchor instead of a solve.
func (c *Controller) floorClears(prob *partition.Problem, f, bar float64) bool {
	if len(c.floors) == 0 {
		c.solveFloor(c.sys.Problem(), 1, 0)
	}
	lo, i, solved := c.memoFloor(f)
	if lo >= bar || solved {
		return lo >= bar
	}
	return c.solveFloor(prob, f, i) >= bar
}

// solveFloor solves M(f) under prob and returns its certified lower
// bound, memoized at index i while the memo has room.
func (c *Controller) solveFloor(prob *partition.Problem, f float64, i int) float64 {
	if c.floorGraph == nil {
		c.floorGraph = c.sys.Problem().NewCutGraph()
	}
	_, m := c.floorGraph.MinCut(prob)
	lo := m*(1-floorRelSlack) - c.slack
	if len(c.floors) < maxFloors {
		c.floors = slices.Insert(c.floors, i, floorPoint{f: f, lo: lo})
	}
	return lo
}

// memoFloor returns the memo's lower bound on M(f), -Inf when no point
// lies at or below f (before the first floor check, which anchors the
// memo at f = 1), the index where f sits in the memo, and whether f
// itself was solved.
func (c *Controller) memoFloor(f float64) (lo float64, i int, solved bool) {
	i, solved = slices.BinarySearchFunc(c.floors, f, func(p floorPoint, f float64) int { return cmp.Compare(p.f, f) })
	switch {
	case solved:
		return c.floors[i].lo, i, true
	case i == 0:
		return math.Inf(-1), i, false
	case i == len(c.floors):
		return c.floors[i-1].lo, i, false
	}
	a, b := c.floors[i-1], c.floors[i]
	return a.lo + (b.lo-a.lo)*(f-a.f)/(b.f-a.f), i, false
}

// ObserveEvent feeds one classified event back into the loop: the
// outcome updates the channel estimate and the running violation rate,
// and — while the active cut is on probation — violating the deadline
// more often than the previous cut already did triggers a rollback to
// that cut, returned as a Change to install.
func (c *Controller) ObserveEvent(now float64, out xsystem.Outcome, violated bool) *Change {
	c.est.ObserveOutcome(out)
	c.publishEstimate(c.est.Estimate())
	sample := 0.0
	if violated {
		sample = 1
	}
	onProbation := c.prev != nil
	if !onProbation {
		// The rate the next probation is judged against describes the
		// committed cut; probation events judge themselves.
		c.violRate += c.cfg.Alpha * (sample - c.violRate)
		return nil
	}
	if violated {
		c.probViol++
	}
	if c.probViol > c.probLimit {
		est := c.est.Estimate()
		c.decisions = append(c.decisions, Decision{
			At: now, Kind: "rollback", Loss: est.Loss, Outage: est.Outage,
			From: c.active, To: c.prev,
		})
		ch := &Change{Kind: "rollback", Placement: c.prev, System: c.prevSys}
		c.active = c.prev
		c.prev, c.prevSys = nil, nil
		c.lastChange = now
		c.probation = 0
		c.rollbacks.Inc()
		sc, _ := c.active.Counts()
		c.gaugeCells.Set(float64(sc))
		return ch
	}
	c.probation--
	if c.probation <= 0 {
		// Probation survived: commit the cut.
		c.prev, c.prevSys = nil, nil
	}
	return nil
}
