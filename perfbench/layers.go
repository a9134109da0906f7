package main

import (
	"context"
	"fmt"
	"time"

	"xpro"
	"xpro/internal/admit"
	"xpro/internal/biosig"
	"xpro/internal/faults"
	"xpro/internal/topology"
	"xpro/internal/xsystem"
)

// Per-layer attribution. Every workload splits its measured per-event
// wall (wall_ns_per_event) into the layers it runs; residual_ns_per_event
// is what the attributed layers leave unexplained:
//
//	fleet:          serve.submit + walk + telemetry + residual
//	tiered-storm:   walk + adaptive.ladder + residual
//	adaptive-chaos: walk + adaptive.reprice + telemetry + recovery.checkpoint + residual
//
// where walk = dwt + stats + svm + xsystem.walk_self. telemetry is the
// engine's public call minus the replayed bare walk on the same
// segments; on adaptive-chaos it also holds the journal append and the
// integrity gate, which the public API does not separate.

// segsByCase groups up to limit replayed segments per case.
func segsByCase(e *env, subjCase func(int) string, evs []replayEvent, limit int) map[string][][]float64 {
	out := map[string][][]float64{}
	for _, ev := range evs {
		c := subjCase(ev.subj)
		if len(out[c]) < limit {
			out[c] = append(out[c], e.tests[c][ev.seg].Samples)
		}
	}
	return out
}

// replayEvent is one event a traced run replays.
type replayEvent struct{ subj, seg, ep int }

// engineTelemetry sums the spans and event-log records the observers
// have recorded so far.
func engineTelemetry(obs ...*xpro.Observer) (spans, records uint64) {
	for _, o := range obs {
		_, s, _ := o.TraceStats()
		_, r, _ := o.EventLogStats()
		spans += s
		records += r
	}
	return spans, records
}

func observers(engines []*xpro.Engine) []*xpro.Observer {
	out := make([]*xpro.Observer, len(engines))
	for i, e := range engines {
		out[i] = e.Observer()
	}
	return out
}

// commonLayers replays the set-up layers every workload shares.
func commonLayers(t *traced, v map[string]float64) error {
	var err error
	if v["partition.generate_us"], err = t.lab.generateUs(5); err != nil {
		return err
	}
	if v["partition.solve_us"], err = t.lab.solveUs(20); err != nil {
		return err
	}
	return nil
}

func (w *fleetWL) layers(t *traced) (map[string]float64, error) {
	v := map[string]float64{}
	d := t.untraced.detail.(*fleetDetail)
	spare := t.spare.(*fleetState)
	nom := d.nominal
	var evs []replayEvent
	for _, ev := range nom.evs[:min(replayEvents, len(nom.evs))] {
		evs = append(evs, replayEvent{subj: int(ev.subj), seg: int(ev.seg)})
	}
	subjCase := func(s int) string { return spare.cases[s] }

	// Guard: every case's replay system has its engine's cut and labels.
	for c, segs := range segsByCase(t.env, subjCase, evs, 200) {
		eng := spare.engines[indexOf(spare.cases, c)]
		sys := t.lab.crossEnd(c)
		if err := guardCut(c, sys, eng); err != nil {
			return nil, err
		}
		if err := guardLabels(c, segs,
			func(s []float64) (int, error) { return sys.Classify(biosig.Segment{Samples: s}) },
			func(s []float64) (int, error) { r, err := eng.ClassifyResult(s); return r.Label, err }); err != nil {
			return nil, err
		}
	}

	// The bare walk's allocations, then walk and public call timed
	// back to back on every event so both see the same caches.
	m0 := mallocs()
	for _, ev := range evs {
		_, _ = t.lab.crossEnd(spare.cases[ev.subj]).Classify(biosig.Segment{Samples: t.env.tests[spare.cases[ev.subj]][ev.seg].Samples})
	}
	v["xsystem.walk_allocs_per_event"] = float64(mallocs()-m0) / float64(len(evs))
	ctx := context.Background()
	var walkNs, publicNs int64
	var kt kernelTotals
	for _, ev := range evs {
		c := spare.cases[ev.subj]
		samples := t.env.tests[c][ev.seg].Samples
		sys := t.lab.crossEnd(c)
		t0 := time.Now()
		_, _ = sys.Classify(biosig.Segment{Samples: samples})
		t1 := time.Now()
		_, _ = spare.engines[ev.subj].ClassifyResultContext(ctx, samples)
		publicNs += int64(time.Since(t1))
		walkNs += int64(t1.Sub(t0))
		calls, err := kernels(sys, sys.Placement.OnSensor, samples)
		if err != nil {
			return nil, err
		}
		kt.time(calls)
	}
	n := float64(len(evs))
	walk, public := float64(walkNs)/n, float64(publicNs)/n
	kt.set(v)
	v["xsystem.walk_ns_per_event"] = walk
	v["xsystem.walk_self_ns_per_event"] = walk - kt.sum()
	v["telemetry.ns_per_event"] = public - walk
	v["telemetry.spans_per_event"] = float64(nom.spans) / float64(t.untraced.events)
	v["telemetry.records_per_event"] = float64(nom.records) / float64(t.untraced.events)

	submits := t.rec.durations("submit")
	v["serve.submit_ns"] = median(submits)
	submitMean := 0.0
	for _, s := range submits {
		submitMean += s / float64(len(submits))
	}
	v["serve.queue_wait_p50_us"], v["serve.queue_wait_p99_us"] = d.queueP50, d.queueP99

	times := make([]float64, len(nom.evs))
	classes := make([]admit.Class, len(nom.evs))
	for i, ev := range nom.evs {
		times[i], classes[i] = float64(ev.due)/1e9, admitClass(ev.prio)
	}
	var err error
	if v["admit.decide_ns"], err = decideNs(times, classes); err != nil {
		return nil, err
	}
	var refused, alerts, alertRefused int
	for i, o := range d.overload.out {
		alert := d.overload.evs[i].prio == xpro.PriorityAlert
		if alert {
			alerts++
		}
		if o.kind == "shed" || o.kind == "overloaded" {
			refused++
			if alert {
				alertRefused++
			}
		}
	}
	v["admit.shed_ratio"] = float64(refused) / float64(len(d.overload.out))
	v["serve.capacity_eps"], v["serve.overload_goodput_eps"] = d.capacity, d.overloadGoodput
	if alerts > 0 {
		v["admit.alert_shed_ratio"] = float64(alertRefused) / float64(alerts)
	}
	var lag []float64
	for _, ph := range []*fleetPhase{d.nominal, d.overload} {
		for i, o := range ph.out {
			lag = append(lag, float64(o.send-ph.evs[i].due)/1e3)
		}
	}
	v["loadgen.lag_p99_us"] = quantile(lag, 0.99)

	// The fleet has no fault layer: its link replay is the clean wire.
	var st sendTotals
	runs := map[string]*linkRun{}
	for _, ev := range evs {
		c := spare.cases[ev.subj]
		sys := t.lab.crossEnd(c)
		if runs[c] == nil {
			lr, err := newLinkRun(sys.Link, nil, 0, 1/sys.EventsPerSecond())
			if err != nil {
				return nil, err
			}
			runs[c] = lr
		}
		st.send(runs[c], crossings(sys.Graph, sys.Placement), nil)
	}
	v["faults.send_ns"] = st.perCall()
	if err := commonLayers(t, v); err != nil {
		return nil, err
	}
	v["residual_ns_per_event"] = t.untraced.wallNs - submitMean - walk - v["telemetry.ns_per_event"]
	return v, nil
}

func indexOf(xs []string, x string) int {
	for i, s := range xs {
		if s == x {
			return i
		}
	}
	return -1
}

// closedReplay lists the first replayEvents events of a closed pass.
func closedReplay(d *closedDetail) []replayEvent {
	evs := make([]replayEvent, 0, min(replayEvents, len(d.events)))
	for _, ev := range d.events[:min(replayEvents, len(d.events))] {
		evs = append(evs, replayEvent{subj: ev.subj, seg: ev.seg, ep: ev.ep})
	}
	return evs
}

// closedOutcomes sets the fault ledger and admission figures every
// closed loop reports and returns the mean public call in ns.
func closedOutcomes(t *traced, v map[string]float64) float64 {
	d := t.untraced.detail.(*closedDetail)
	var resends, lost int
	for _, o := range d.outs {
		resends += o.retries
		lost += o.lost
	}
	v["faults.resends_per_event"] = float64(resends) / float64(len(d.outs))
	v["faults.lost_per_event"] = float64(lost) / float64(len(d.outs))
	// The public call's mean comes from the untraced pass, like the
	// per-event wall it is compared with.
	sum := 0.0
	for _, us := range t.untraced.lat {
		sum += us * 1e3
	}
	times := make([]float64, len(d.events))
	classes := make([]admit.Class, len(d.events))
	for i := range times {
		times[i], classes[i] = float64(i)*t.untraced.wallNs/1e9, admit.Interactive
	}
	// decideNs fails only on an invalid configuration; it uses the default.
	v["admit.decide_ns"], _ = decideNs(times, classes)
	return sum / float64(len(t.untraced.lat))
}

func (w *tieredWL) layers(t *traced) (map[string]float64, error) {
	v := map[string]float64{}
	d := t.untraced.detail.(*closedDetail)
	tc := d.extra.(*telemetryCounts)
	spare := t.spare.(*tieredState)
	evs := closedReplay(d)
	cases := w.cases()
	subjCase := func(s int) string { return cases[s] }
	pol := faults.DefaultPolicy()

	for c, segs := range segsByCase(t.env, subjCase, evs, 200) {
		eng := spare.engines[indexOf(cases, c)]
		if err := guardCut(c, t.lab.crossEnd(c), eng); err != nil {
			return nil, err
		}
		ts, err := t.lab.tiered(c)
		if err != nil {
			return nil, err
		}
		clean, err := eng.PlanTiers(tieredTiers)
		if err != nil {
			return nil, err
		}
		for i, tier := range clean.Assignment() {
			if int(ts.TierPlacement[i]) != tier {
				return nil, fmt.Errorf("%w: %s: cell %d on tier %d in the plan, %d in the replay", errGuard, c, i, tier, ts.TierPlacement[i])
			}
		}
		if err := clean.Arm(&xpro.TierResilience{}); err != nil {
			return nil, err
		}
		if err := guardLabels(c, segs,
			func(s []float64) (int, error) {
				out, err := ts.ClassifyOver(biosig.Segment{Samples: s}, &xsystem.TieredOptions{Policy: pol})
				return out.Label, err
			},
			func(s []float64) (int, error) { r, err := clean.ClassifyResult(s); return r.Label, err }); err != nil {
			return nil, err
		}
	}

	// The tiered walk on the same segments with the same per-hop links:
	// every subject's episode replays from fresh hop state.
	type hopRun struct {
		opt    *xsystem.TieredOptions
		period float64
	}
	runs := map[[2]int]*hopRun{}
	sends := map[[2]int]*linkRun{}
	var walkNs int64
	var kt kernelTotals
	var st sendTotals
	m0 := mallocs()
	for _, ev := range evs {
		c := cases[ev.subj]
		ts, _ := t.lab.tiered(c)
		key := [2]int{ev.subj, ev.ep}
		r := runs[key]
		if r == nil {
			seed, hor := w.stormSeed(ev.subj, ev.ep), w.horizon(ev.subj)
			storm := faults.HubStormPlan(seed, faults.PlanConfig{Horizon: hor, MeanDuration: hor / 20, HubStorms: tieredStorms})
			clock := &faults.Clock{}
			opt := &xsystem.TieredOptions{Clock: clock, Policy: pol, Integrity: framing()}
			for h := range ts.Tiered.Hops {
				// The hub is tier 1: its storms down hops 0 and 1.
				link, err := faults.NewLink(ts.Tiered.Hops[h].Link, faults.MergePlans(nil, storm), clock, 0, 0, faults.HopSeed(seed, h))
				if err != nil {
					return nil, err
				}
				br, err := faults.NewBreaker(pol.BreakerThreshold, pol.BreakerCooldown, clock)
				if err != nil {
					return nil, err
				}
				opt.Hops = append(opt.Hops, xsystem.HopTransport{Link: link, Breaker: br})
			}
			r = &hopRun{opt: opt, period: 1 / ts.System.EventsPerSecond()}
			runs[key] = r
			lr, err := newLinkRun(ts.Tiered.Hops[0].Link, faults.MergePlans(nil, storm), faults.HopSeed(seed, 0), r.period)
			if err != nil {
				return nil, err
			}
			sends[key] = lr
		}
		seg := biosig.Segment{Samples: t.env.tests[c][ev.seg].Samples}
		t0 := time.Now()
		_, _ = ts.ClassifyOver(seg, r.opt)
		walkNs += int64(time.Since(t0))
		r.opt.Clock.Advance(r.period)
	}
	v["xsystem.walk_allocs_per_event"] = float64(mallocs()-m0) / float64(len(evs))
	for _, ev := range evs {
		c := cases[ev.subj]
		ts, _ := t.lab.tiered(c)
		samples := t.env.tests[c][ev.seg].Samples
		calls, err := kernels(ts.System, func(id topology.CellID) bool { return ts.TierPlacement[id] == 0 }, samples)
		if err != nil {
			return nil, err
		}
		kt.time(calls)
		st.send(sends[[2]int{ev.subj, ev.ep}], crossings(ts.Graph, ts.System.Placement), framing())
	}
	walk := float64(walkNs) / float64(len(evs))
	kt.set(v)
	v["xsystem.walk_ns_per_event"] = walk
	v["xsystem.walk_self_ns_per_event"] = walk - kt.sum()
	v["faults.send_ns"] = st.perCall()
	public := closedOutcomes(t, v)
	v["adaptive.ladder_ns_per_event"] = public - walk
	v["telemetry.spans_per_event"] = float64(tc.spans) / float64(t.untraced.events)
	v["telemetry.records_per_event"] = float64(tc.records) / float64(t.untraced.events)
	if err := commonLayers(t, v); err != nil {
		return nil, err
	}
	v["residual_ns_per_event"] = t.untraced.wallNs - public
	return v, nil
}

// telemetryCounts is the program's span and event-log record growth
// over one pass.
type telemetryCounts struct{ spans, records uint64 }

func (w *chaosWL) layers(t *traced) (map[string]float64, error) {
	v := map[string]float64{}
	d := t.untraced.detail.(*closedDetail)
	cc := d.extra.(*chaosCounters)
	spare := t.spare.(*chaosState)
	evs := closedReplay(d)
	subjects := w.subjectCases()
	subjCase := func(s int) string { return subjects[s] }
	pol := faults.DefaultPolicy()

	for c, segs := range segsByCase(t.env, subjCase, evs, 200) {
		sys := t.lab.crossEnd(c)
		if err := guardCut(c, sys, spare.engines[indexOf(subjects, c)]); err != nil {
			return nil, err
		}
		clean, err := xpro.New(xpro.Config{Case: c, Resilience: xpro.DefaultResilience()})
		if err != nil {
			return nil, err
		}
		if err := guardLabels(c, segs,
			func(s []float64) (int, error) {
				out, err := sys.ClassifyOver(biosig.Segment{Samples: s}, &xsystem.ResilientOptions{Policy: pol})
				return out.Label, err
			},
			func(s []float64) (int, error) { r, err := clean.ClassifyResult(s); return r.Label, err }); err != nil {
			return nil, err
		}
	}

	type walkRun struct {
		opt *xsystem.ResilientOptions
		lr  *linkRun
	}
	runs := map[[2]int]*walkRun{}
	sends := map[[2]int]*linkRun{}
	var walkNs int64
	m0 := mallocs()
	for _, ev := range evs {
		c := subjects[ev.subj]
		sys := t.lab.crossEnd(c)
		key := [2]int{ev.subj, ev.ep}
		r := runs[key]
		if r == nil {
			fp, scn, err := w.plan(ev.subj, ev.ep)
			if err != nil {
				return nil, err
			}
			plan, err := faults.Scenario(scn, fp.Seed, float64(chaosPerEpisode)/w.env.rate[c])
			if err != nil {
				return nil, err
			}
			period := 1 / sys.EventsPerSecond()
			lr, err := newLinkRun(sys.Link, plan, fp.Seed, period)
			if err != nil {
				return nil, err
			}
			r = &walkRun{lr: lr, opt: &xsystem.ResilientOptions{
				Transport: lr.link, Plan: plan, Clock: lr.clock, Policy: pol, Breaker: lr.breaker, Integrity: framing(),
			}}
			runs[key] = r
			if sends[key], err = newLinkRun(sys.Link, plan, fp.Seed, period); err != nil {
				return nil, err
			}
		}
		seg := biosig.Segment{Samples: t.env.tests[c][ev.seg].Samples}
		t0 := time.Now()
		_, _ = sys.ClassifyOver(seg, r.opt)
		walkNs += int64(time.Since(t0))
		r.lr.clock.Advance(r.lr.period)
	}
	v["xsystem.walk_allocs_per_event"] = float64(mallocs()-m0) / float64(len(evs))
	var kt kernelTotals
	var st sendTotals
	for _, ev := range evs {
		c := subjects[ev.subj]
		sys := t.lab.crossEnd(c)
		calls, err := kernels(sys, sys.Placement.OnSensor, t.env.tests[c][ev.seg].Samples)
		if err != nil {
			return nil, err
		}
		kt.time(calls)
		st.send(sends[[2]int{ev.subj, ev.ep}], crossings(sys.Graph, sys.Placement), framing())
	}
	walk := float64(walkNs) / float64(len(evs))
	kt.set(v)
	v["xsystem.walk_ns_per_event"] = walk
	v["xsystem.walk_self_ns_per_event"] = walk - kt.sum()
	v["faults.send_ns"] = st.perCall()
	public := closedOutcomes(t, v)

	n := float64(t.untraced.events)
	v["adaptive.evals_per_event"] = cc.evals / n
	v["adaptive.repricings_per_event"] = cc.repricings / n
	v["adaptive.reprice_p50_us"] = median(cc.repriceP50S) * 1e6
	v["adaptive.reprice_ns_per_event"] = cc.repriceSumS * 1e9 / n
	if cc.repricings > 0 {
		v["adaptive.useful_ratio"] = float64(cc.useful) / cc.repricings
	}
	v["recovery.journal_bytes_per_event"] = float64(cc.journalBytes) / n
	v["recovery.checkpoint_us"] = median(cc.checkpointNs) / 1e3
	ckpt := 0.0
	for _, ns := range cc.checkpointNs {
		ckpt += ns
	}
	v["recovery.checkpoint_ns_per_event"] = ckpt / n
	v["telemetry.spans_per_event"] = float64(cc.spans) / n
	v["telemetry.records_per_event"] = float64(cc.records) / n
	v["telemetry.ns_per_event"] = public - walk - v["adaptive.reprice_ns_per_event"]
	if err := commonLayers(t, v); err != nil {
		return nil, err
	}
	v["residual_ns_per_event"] = t.untraced.wallNs - public - v["recovery.checkpoint_ns_per_event"]
	return v, nil
}
