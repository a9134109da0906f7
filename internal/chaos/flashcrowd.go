// Flash-crowd soak: the overload battery. Where the drift soaks in
// this package stress one engine's channel, the flash crowd stresses
// the fleet's serving capacity: a population of subjects whose
// arrival rate bursts 10× inside seeded demand-surge windows while
// the shared channel degrades underneath them.
//
// The harness is a deterministic multi-server queue simulation on the
// modeled clock. Subjects are sharded to workers exactly like
// serve.Pool shards them (subject mod workers), each worker serves
// its FIFO serially, and every admitted event's service time is a
// real run of the engine's 2-end ladder (adaptive.EndRuntime) on the
// worker's faulty link — so overload and channel faults compound the
// way they do in the live fleet. Subjects sharing a worker share one
// channel: they see the same fault windows at the same instants
// (correlated storms), with per-channel packet randomness.
//
// Admission runs the same internal/admit controller the fleet wires
// in front of its pool, driven by the modeled clock, and the run is
// self-calibrating: a baseline pass serves the identical arrival
// stream with no queueing (an infinite-server reference) to measure
// the unloaded latency profile, and the overload pass derives its
// deadline budgets and CoDel target from that baseline. The
// acceptance properties (LatencyBounded, StrictPriority) are
// therefore stated relative to the fixture's own unloaded behaviour,
// not absolute constants.
package chaos

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"xpro/internal/adaptive"
	"xpro/internal/admit"
	"xpro/internal/biosig"
	"xpro/internal/faults"
	"xpro/internal/partition"
	"xpro/internal/telemetry"
	"xpro/internal/xsystem"
)

// FlashCrowdConfig shapes one flash-crowd run. The zero value of
// every field selects a sensible default.
type FlashCrowdConfig struct {
	// Seed drives the fault plan, every arrival process and every
	// lossy link; the same seed replays the identical run.
	Seed int64
	// Subjects is the fleet population (default 24). Subjects cycle
	// through the priority classes 3 batch : 2 interactive : 1 alert.
	Subjects int
	// Workers is the worker/channel count (default 4). A subject is
	// pinned to worker subject mod Workers, so per-subject ordering
	// is structural, and all subjects on a worker share its channel
	// and fault plan.
	Workers int
	// QueueDepth is the per-worker queue bound (default 64); an
	// arrival that finds the queue at depth is refused outright
	// regardless of class, exactly like serve.Pool.
	QueueDepth int
	// Arrivals is the target baseline (1×) arrival count across the
	// whole run (default 600); the horizon is derived from it.
	Arrivals int
	// Utilization is the baseline offered load as a fraction of
	// fleet service capacity (default 0.08). The default is sized so
	// the alert slice alone — one subject in six, never shed — keeps
	// a comfortable queueing margin even at the full surge factor
	// with loss-inflated service times: 0.08 × 10 × 1/6 ≈ 0.13 of
	// clean capacity, ≈ 0.25 when a loss burst doubles the service
	// time. (Queue waits explode as utilisation approaches 1, and
	// the service-time distribution under a loss burst is heavy-
	// tailed; the p99 bound needs the one unsheddable class to stay
	// well away from that wall.)
	Utilization float64
	// LinkRetries is the link-layer retransmission budget (default
	// 6; negative means none), as in Config.
	LinkRetries int
	// Admission overrides the overload pass's admission parameters.
	// Nil calibrates them from the baseline pass (see FlashCrowd).
	Admission *admit.Config
	// Brownout overrides the overload pass's brownout parameters.
	// Nil calibrates them from the baseline pass.
	Brownout *admit.BrownoutConfig
}

func (c *FlashCrowdConfig) fill() {
	if c.Subjects <= 0 {
		c.Subjects = 24
	}
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.Arrivals <= 0 {
		c.Arrivals = 600
	}
	if c.Utilization <= 0 {
		c.Utilization = 0.08
	}
	if c.LinkRetries == 0 {
		c.LinkRetries = 6
	}
	if c.LinkRetries < 0 {
		c.LinkRetries = 0
	}
}

// ShedRecord is one refused arrival: the determinism artifact for
// the shed side of the run (two same-seed runs must produce
// identical slices) and the evidence for the strict-priority check.
type ShedRecord struct {
	TimeSeconds float64
	Subject     int
	Class       admit.Class
	// Reason is the admission reason ("occupancy", "deadline",
	// "codel") or "pool-full" when the queue itself was at depth.
	Reason string
}

// LoadStats aggregates one pass (baseline or overload).
type LoadStats struct {
	// Offered / Admitted / Served / Failed count arrivals, admitted
	// arrivals, classified events and events with no label even
	// after the fallback rung.
	Offered, Admitted, Served, Failed int
	// PoolFull counts class-blind refusals: the queue was at depth.
	PoolFull int
	// ShedByClass counts admission sheds per priority class.
	ShedByClass [admit.NumClasses]int
	// BrownedServed counts events served on the in-sensor fallback
	// rung because the brownout controller was active.
	BrownedServed int
	// LatencyP50S / LatencyP99S are quantiles of total latency
	// (queue wait + service) over admitted events.
	LatencyP50S, LatencyP99S float64
	// ClassP99S breaks the p99 down per priority class.
	ClassP99S [admit.NumClasses]float64
	// MaxQueueLen is the deepest any worker queue got.
	MaxQueueLen int
	// OrderViolations counts per-subject service-order inversions
	// (structurally impossible with pinned FIFO workers; asserted
	// anyway).
	OrderViolations int
	// SensorEnergyJ is the total modeled sensor energy spent.
	SensorEnergyJ float64
}

// FlashCrowdResult is one flash-crowd run: the baseline pass, the
// overload pass, and the shed/brownout logs for determinism and
// priority checks.
type FlashCrowdResult struct {
	Seed           int64
	HorizonSeconds float64
	// ServiceMeanSeconds is the probed clean per-event service time
	// the arrival rate was derived from; FallbackMeanSeconds is the
	// same probe on the in-sensor fallback rung (when it is not
	// faster, calibration disarms the brownout).
	ServiceMeanSeconds  float64
	FallbackMeanSeconds float64
	// SurgeFactor is the largest demand-surge multiplier in the plan.
	SurgeFactor float64
	// Plan is the seeded fault plan both passes replay over the
	// identical surge-weighted arrival stream.
	Plan *faults.Plan
	// Admission / Brownout are the parameters the overload pass ran
	// with (calibrated or caller-supplied).
	Admission admit.Config
	Brownout  admit.BrownoutConfig

	Baseline LoadStats
	Overload LoadStats

	// Sheds is the overload pass's refusal log in decision order.
	Sheds []ShedRecord
	// Brownouts is the overload pass's brownout transition log.
	Brownouts []admit.BrownoutEvent
	// BrownoutEnters / Exits / Rollbacks are the cumulative
	// transition counts.
	BrownoutEnters, BrownoutExits, BrownoutRollbacks uint64
}

// LatencyBounded reports the headline acceptance property: the
// overload pass kept admitted p99 latency within factor × the
// unloaded baseline p99.
func (r *FlashCrowdResult) LatencyBounded(factor float64) bool {
	return r.Overload.LatencyP99S <= factor*r.Baseline.LatencyP99S
}

// StrictPriority checks the shedding order: alert traffic is never
// refused at all (neither by admission nor by a full queue), and in
// every demand-surge window where interactive traffic was shed,
// batch traffic was shed too — lower classes always hit the wall
// first. It returns nil when the property holds.
func (r *FlashCrowdResult) StrictPriority() error {
	if n := r.Overload.ShedByClass[admit.Alert]; n > 0 {
		return fmt.Errorf("chaos: %d alert events were shed by admission", n)
	}
	for _, s := range r.Sheds {
		if s.Reason == "pool-full" && s.Class == admit.Alert {
			return fmt.Errorf("chaos: alert event refused by a full queue at t=%.3fs", s.TimeSeconds)
		}
	}
	for _, w := range r.Plan.Windows {
		if w.Kind != faults.DemandSurge {
			continue
		}
		var batch, inter int
		for _, s := range r.Sheds {
			if s.TimeSeconds < w.Start || s.TimeSeconds > w.End {
				continue
			}
			switch s.Class {
			case admit.Batch:
				batch++
			case admit.Interactive:
				inter++
			}
		}
		if inter > 0 && batch == 0 {
			return fmt.Errorf("chaos: surge window [%.2f, %.2f] shed %d interactive events but no batch",
				w.Start, w.End, inter)
		}
	}
	return nil
}

// subjectClass stripes the population 3 batch : 2 interactive : 1
// alert by rank within each worker, so every worker serves exactly
// the same class mix. (Striping by raw subject index interferes with
// the subject→worker sharding: when gcd(6, workers) > 1 the alert
// subjects pile onto a subset of the workers, doubling the one load
// that can never be shed.)
func subjectClass(s, workers int) admit.Class {
	switch (s / workers) % 6 {
	case 3, 4:
		return admit.Interactive
	case 5:
		return admit.Alert
	default:
		return admit.Batch
	}
}

// fcArrival is one offered event.
type fcArrival struct {
	t       float64
	subject int
	seq     int
	class   admit.Class
}

// fcPending is one admitted event waiting in a worker's FIFO.
type fcPending struct {
	arrival float64
	subject int
	class   admit.Class
	segIdx  int
}

// fcWorker is one serving channel: its own 2-end runtime (shared fault
// windows, per-channel packet randomness), the FIFO of admitted
// events, and the in-service completion time.
type fcWorker struct {
	rt        *adaptive.EndRuntime
	queue     []fcPending
	head      int
	inService bool
	busyUntil float64
}

// FlashCrowd replays one seeded flash crowd against the generated
// system. It runs two passes over the identical surge-weighted
// arrival stream and fault plan: a baseline pass with no queueing
// (every event starts on arrival — the unloaded, infinite-server
// reference for exactly this traffic), then the overload pass with
// the real bounded queues and the admission + brownout controllers
// in front of them. The acceptance bound compares the two, so it
// isolates what contention adds: same events, same channel faults,
// only the queues differ. When cfg leaves Admission or Brownout nil
// they are calibrated from the baseline pass:
//
//   - deadline budgets: batch waits at most ~35% of the unloaded
//     p99, interactive ~60%, alert has no deadline gate — so
//     admitted p99 stays inside 2× the unloaded p99 with margin;
//   - CoDel target at half the unloaded p99, interval a few service
//     times — a standing queue above target drains by shedding batch;
//   - the brownout is armed only when the fallback rung is probed
//     faster than the cross cut (otherwise browning out would shrink
//     capacity exactly when the queue needs it), with exit far below
//     enter so the cheap rung holds through a whole surge window.
func FlashCrowd(sys *xsystem.System, segs []biosig.Segment, cfg FlashCrowdConfig) (*FlashCrowdResult, error) {
	if sys == nil {
		return nil, fmt.Errorf("chaos: nil system")
	}
	if len(segs) == 0 {
		return nil, fmt.Errorf("chaos: no segments")
	}
	if !finitePos(cfg.Utilization) && cfg.Utilization != 0 {
		return nil, fmt.Errorf("chaos: utilization %v must be finite and positive", cfg.Utilization)
	}
	cfg.fill()

	// The same delay constraint and fallback cut the drift soaks use.
	inSensor := partition.InSensor(sys.Graph)
	limit := sys.DelayOf(inSensor).Total()
	if d := sys.DelayOf(partition.InAggregator(sys.Graph)).Total(); d < limit {
		limit = d
	}
	fallback, err := sys.WithPlacement(inSensor)
	if err != nil {
		return nil, err
	}
	pol := policy(2 * limit)

	// Probe the clean per-event service time to size the offered
	// load, and the fallback rung's service time to decide whether a
	// brownout can add capacity at all.
	svcMean, err := probeService(sys, segs, cfg, pol)
	if err != nil {
		return nil, err
	}
	fbMean, err := probeService(fallback, segs, cfg, pol)
	if err != nil {
		return nil, err
	}
	baseRate := cfg.Utilization * float64(cfg.Workers) / (float64(cfg.Subjects) * svcMean)
	horizon := float64(cfg.Arrivals) * svcMean / (cfg.Utilization * float64(cfg.Workers))

	plan, err := Profile("flash-crowd", cfg.Seed, horizon)
	if err != nil {
		return nil, err
	}
	res := &FlashCrowdResult{
		Seed: cfg.Seed, HorizonSeconds: horizon,
		ServiceMeanSeconds: svcMean, FallbackMeanSeconds: fbMean, Plan: plan,
	}
	for _, w := range plan.Windows {
		if w.Kind == faults.DemandSurge && w.Rate > res.SurgeFactor {
			res.SurgeFactor = w.Rate
		}
	}

	// Baseline pass: the identical surge-weighted arrival stream and
	// fault plan, served with no queueing (every event starts the
	// instant it arrives — an infinite-server reference). This is the
	// unloaded latency of exactly the traffic the overload pass must
	// serve: same composition, same channel faults, zero contention.
	// The acceptance bound then isolates what overload adds.
	res.Baseline, _, err = runCrowd(sys, segs, plan, pol, cfg, baseRate, horizon, false, nil, nil)
	if err != nil {
		return nil, err
	}
	p99 := res.Baseline.LatencyP99S

	ac := admit.DefaultConfig()
	if cfg.Admission != nil {
		ac = *cfg.Admission
	} else {
		ac.TargetDelaySeconds = 0.5 * p99
		ac.IntervalSeconds = 4 * svcMean
		ac.Alpha = 0.3
		ac.BatchShare, ac.InteractiveShare = 0.4, 0.75
		ac.BatchBudgetSeconds = 0.2 * p99
		ac.InteractiveBudgetSeconds = 0.35 * p99
	}
	bc := admit.DefaultBrownoutConfig()
	if cfg.Brownout != nil {
		bc = *cfg.Brownout
	} else if fbMean < svcMean {
		// The cheap rung is genuinely faster, so browning out raises
		// capacity: enter at the CoDel target (the delay is already a
		// standing queue there) and dwell long enough to hold the
		// rung through a whole surge window. Exit is deliberately far
		// below enter: leaving brownout while a surge is still
		// running puts the degraded link back on the serving path and
		// the queue rebuilds at fault-inflated service times.
		bc.EnterDelaySeconds = 0.5 * p99
		bc.ExitDelaySeconds = 0.05 * p99
		bc.MinDwellSeconds = 100 * svcMean
		bc.ProbationSeconds = 50 * svcMean
	} else {
		// The fallback rung is no faster than the cross cut (the
		// generated cut already front-loads the cheap compute), so a
		// brownout would shrink capacity exactly when the queue needs
		// it — probation would enter, measure the delay getting
		// worse, and roll back, paying the slow rung for the whole
		// probation window. Calibration disarms it; admission alone
		// holds the line.
		bc.EnterDelaySeconds = 1e6 * p99
		bc.ExitDelaySeconds = p99
	}
	ctrl, err := admit.NewController(ac)
	if err != nil {
		return nil, err
	}
	brown, err := admit.NewBrownout(bc)
	if err != nil {
		return nil, err
	}
	res.Admission, res.Brownout = ac, bc

	var sheds []ShedRecord
	res.Overload, sheds, err = runCrowd(sys, segs, plan, pol, cfg, baseRate, horizon, true, ctrl, brown)
	if err != nil {
		return nil, err
	}
	res.Sheds = sheds
	res.Brownouts, _ = brown.Events()
	res.BrownoutEnters, res.BrownoutExits, res.BrownoutRollbacks = brown.Counts()
	return res, nil
}

func finitePos(v float64) bool { return v > 0 && !math.IsInf(v, 0) }

// probeService measures the clean-channel per-event service time:
// the mean ClassifyOver SpentSeconds over a prefix of the stream on
// a fault-free link.
func probeService(sys *xsystem.System, segs []biosig.Segment, cfg FlashCrowdConfig, pol faults.Policy) (float64, error) {
	n := len(segs)
	if n > 32 {
		n = 32
	}
	clock := &faults.Clock{}
	clean := &faults.Plan{}
	link, err := faults.NewLink(sys.Link, clean, clock, 0, cfg.LinkRetries, cfg.Seed)
	if err != nil {
		return 0, err
	}
	total := 0.0
	for i := 0; i < n; i++ {
		out, err := sys.ClassifyOver(segs[i], &xsystem.ResilientOptions{
			Transport: link, Plan: clean, Clock: clock, Policy: pol,
		})
		if err != nil {
			return 0, fmt.Errorf("chaos: service probe failed on a clean link: %w", err)
		}
		total += out.SpentSeconds
		clock.Advance(out.SpentSeconds)
	}
	mean := total / float64(n)
	if !finitePos(mean) {
		return 0, fmt.Errorf("chaos: probed service time %v is not positive", mean)
	}
	return mean, nil
}

// genArrivals draws every subject's seeded arrival process over the
// horizon. Inter-arrival times are exponential at the subject's base
// rate scaled by the plan's surge multiplier at the current instant,
// then merged into one global time-ordered stream with deterministic
// tie-breaks. Both passes replay the identical stream.
func genArrivals(plan *faults.Plan, cfg FlashCrowdConfig, baseRate, horizon float64) []fcArrival {
	var all []fcArrival
	for s := 0; s < cfg.Subjects; s++ {
		rng := rand.New(rand.NewSource(cfg.Seed*1000003 + int64(s)*7919 + 1))
		cl := subjectClass(s, cfg.Workers)
		t, seq := 0.0, 0
		for {
			rate := baseRate
			if sg := plan.At(t).Surge; sg > 1 {
				rate *= sg
			}
			t += rng.ExpFloat64() / rate
			if t >= horizon {
				break
			}
			all = append(all, fcArrival{t: t, subject: s, seq: seq, class: cl})
			seq++
		}
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.t != b.t {
			return a.t < b.t
		}
		if a.subject != b.subject {
			return a.subject < b.subject
		}
		return a.seq < b.seq
	})
	return all
}

// runCrowd replays one pass over the seeded arrival stream. With
// queueing true it is an event-driven loop over arrivals and service
// completions in global time order — so an event admitted before a
// brownout transition but served after it runs on the rung that is
// active when the worker actually dequeues it, exactly like the live
// pool. With queueing false every event starts the instant it
// arrives (the infinite-server unloaded reference). ctrl and brown
// may be nil (no admission). It returns the pass stats and, when
// ctrl is set, the refusal log.
func runCrowd(sys *xsystem.System, segs []biosig.Segment, plan *faults.Plan,
	pol faults.Policy, cfg FlashCrowdConfig, baseRate, horizon float64, queueing bool,
	ctrl *admit.Controller, brown *admit.Brownout) (LoadStats, []ShedRecord, error) {

	var st LoadStats
	var sheds []ShedRecord
	workers := make([]*fcWorker, cfg.Workers)
	for w := range workers {
		rt, err := adaptive.NewEndRuntime(sys, adaptive.EndConfig{
			Policy: pol, Plan: plan, LinkRetries: cfg.LinkRetries, Seed: cfg.Seed*101 + int64(w) + 17,
		})
		if err != nil {
			return st, nil, err
		}
		workers[w] = &fcWorker{rt: rt}
	}
	// serve runs one event on w's ladder starting at modeled time now,
	// on the browned rung when browned, and returns its service time.
	serve := func(w *fcWorker, now float64, seg biosig.Segment, browned bool) float64 {
		clock := w.rt.Clock()
		clock.Advance(now - clock.Now())
		ev, err := w.rt.Serve(sys, seg, browned)
		st.SensorEnergyJ += ev.SensorEnergy
		if err != nil {
			st.Failed++
		} else {
			st.Served++
		}
		return ev.SpentSeconds
	}

	arrivals := genArrivals(plan, cfg, baseRate, horizon)
	lat := telemetry.NewSketch(0)
	var classLat [admit.NumClasses]*telemetry.Sketch
	for i := range classLat {
		classLat[i] = telemetry.NewSketch(0)
	}
	lastStart := make([]float64, cfg.Subjects)
	for i := range lastStart {
		lastStart[i] = -1
	}
	finish := func() {
		st.LatencyP50S = lat.Quantile(0.5)
		st.LatencyP99S = lat.Quantile(0.99)
		for i := range classLat {
			st.ClassP99S[i] = classLat[i].Quantile(0.99)
		}
	}

	if !queueing {
		// Infinite-server reference: every event starts on arrival, so
		// latency is pure service time under the same channel faults.
		for i, a := range arrivals {
			st.Offered++
			st.Admitted++
			spent := serve(workers[a.subject%cfg.Workers], a.t, segs[i%len(segs)], false)
			lat.Add(spent)
			classLat[a.class].Add(spent)
			if a.t < lastStart[a.subject] {
				st.OrderViolations++
			}
			lastStart[a.subject] = a.t
		}
		finish()
		return st, nil, nil
	}

	// startService dequeues the front of w's FIFO at time now and runs
	// it to completion on the rung active right now.
	startService := func(w *fcWorker, now float64) {
		p := w.queue[w.head]
		w.head++
		if w.head == len(w.queue) {
			w.queue, w.head = w.queue[:0], 0
		}
		sojourn := now - p.arrival
		if ctrl != nil {
			ctrl.ObserveSojourn(now, sojourn)
		}
		browned := brown != nil && brown.Active()
		if browned {
			st.BrownedServed++
		}
		spent := serve(w, now, segs[p.segIdx%len(segs)], browned)
		w.inService, w.busyUntil = true, now+spent
		if ctrl != nil {
			ctrl.ObserveService(spent)
		}
		lat.Add(sojourn + spent)
		classLat[p.class].Add(sojourn + spent)
		if brown != nil && ctrl != nil {
			brown.Observe(now, ctrl.QueueDelay())
		}
		if now < lastStart[p.subject] {
			st.OrderViolations++
		}
		lastStart[p.subject] = now
	}

	ai := 0
	for {
		// Next completion across workers (lowest index breaks ties).
		wmin := -1
		for idx, w := range workers {
			if w.inService && (wmin < 0 || w.busyUntil < workers[wmin].busyUntil) {
				wmin = idx
			}
		}
		if wmin < 0 && ai >= len(arrivals) {
			break
		}
		if wmin >= 0 && (ai >= len(arrivals) || workers[wmin].busyUntil <= arrivals[ai].t) {
			w := workers[wmin]
			now := w.busyUntil
			w.inService = false
			if w.head < len(w.queue) {
				startService(w, now)
			}
			continue
		}

		a := arrivals[ai]
		ai++
		st.Offered++
		w := workers[a.subject%cfg.Workers]
		qlen := len(w.queue) - w.head
		if qlen > st.MaxQueueLen {
			st.MaxQueueLen = qlen
		}
		if qlen >= cfg.QueueDepth {
			st.PoolFull++
			sheds = append(sheds, ShedRecord{TimeSeconds: a.t, Subject: a.subject, Class: a.class, Reason: "pool-full"})
			continue
		}
		if ctrl != nil {
			if se := ctrl.Decide(a.t, a.class, qlen, cfg.QueueDepth, 0); se != nil {
				st.ShedByClass[se.Class]++
				sheds = append(sheds, ShedRecord{TimeSeconds: a.t, Subject: a.subject, Class: se.Class, Reason: se.Reason})
				continue
			}
		}
		st.Admitted++
		w.queue = append(w.queue, fcPending{arrival: a.t, subject: a.subject, class: a.class, segIdx: ai - 1})
		if !w.inService {
			startService(w, a.t)
		}
	}
	finish()
	return st, sheds, nil
}
