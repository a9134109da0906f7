package experiments

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"xpro/internal/adaptive"
	"xpro/internal/aggregator"
	"xpro/internal/biosig"
	"xpro/internal/bsn"
	"xpro/internal/celllib"
	"xpro/internal/chaos"
	"xpro/internal/ensemble"
	"xpro/internal/faults"
	"xpro/internal/frame"
	"xpro/internal/partition"
	"xpro/internal/serve"
	"xpro/internal/topology"
	"xpro/internal/wireless"
	"xpro/internal/xsystem"
)

// This file holds experiments beyond the paper's evaluation, exercising
// the repository's extensions. They are labeled "ext-*" and run after
// the paper experiments in `xprobench -exp all`.

// ExtLossy sweeps packet-loss rates on the Model 2 link and reports how
// each engine's sensor battery life degrades. Under loss, every
// retransmission costs transmit energy, so transmission-heavy cuts
// (aggregator engine) degrade fastest and the cross-end advantage grows.
func ExtLossy(l *Lab) (*Table, error) {
	t := &Table{
		ID:     "ext-lossy",
		Title:  "EXTENSION: battery life vs packet loss (90nm, Model 2, normalized to clean aggregator engine)",
		Header: []string{"Case", "Loss", "Aggregator", "SensorNode", "CrossEnd"},
	}
	losses := []float64{0, 0.1, 0.3}
	worstDegradeA, worstDegradeS := 1.0, 1.0
	for _, sym := range l.Symbols() {
		es, err := l.Engines(sym, evalProc, evalLink)
		if err != nil {
			return nil, err
		}
		base := lifetime(es.InAggregator)
		for _, loss := range losses {
			ch, err := wireless.NewChannel(evalLink, loss, 10, 1)
			if err != nil {
				return nil, err
			}
			la, err := es.InAggregator.LossyLifetimeHours(ch)
			if err != nil {
				return nil, err
			}
			ls, err := es.InSensor.LossyLifetimeHours(ch)
			if err != nil {
				return nil, err
			}
			lc, err := es.CrossEnd.LossyLifetimeHours(ch)
			if err != nil {
				return nil, err
			}
			t.AddRow(sym, fmt.Sprintf("%.0f%%", loss*100), f2(la/base), f2(ls/base), f2(lc/base))
			if loss == losses[len(losses)-1] {
				worstDegradeA = min2(worstDegradeA, la/lifetime(es.InAggregator))
				worstDegradeS = min2(worstDegradeS, ls/lifetime(es.InSensor))
			}
		}
	}
	t.AddNote("at 30%% loss the aggregator engine keeps ≥%s of its clean lifetime vs ≥%s for the sensor engine — loss punishes transmission-heavy cuts", pct(worstDegradeA), pct(worstDegradeS))
	return t, nil
}

// ExtFrontier prints the energy/delay Pareto frontier of the cut space
// for each case — the design space a latency budget trades over
// (Generate(limit) returns the cheapest frontier point meeting it).
func ExtFrontier(l *Lab) (*Table, error) {
	t := &Table{
		ID:     "ext-frontier",
		Title:  "EXTENSION: energy/delay Pareto frontier of the cut space (90nm, Model 2)",
		Header: []string{"Case", "Point", "Energy(µJ)", "Delay(ms)", "Cells(sensor/agg)"},
	}
	for _, sym := range l.Symbols() {
		es, err := l.Engines(sym, evalProc, evalLink)
		if err != nil {
			return nil, err
		}
		front, err := es.InAggregator.Problem().Frontier(func(p partition.Placement) float64 {
			return es.InAggregator.DelayOf(p).Total()
		})
		if err != nil {
			return nil, err
		}
		for i, fp := range front {
			ns, na := fp.Placement.Counts()
			t.AddRow(sym, fmt.Sprint(i+1), uj(fp.Energy), ms(fp.Delay), fmt.Sprintf("%d/%d", ns, na))
		}
	}
	t.AddNote("each row is a non-dominated placement; the generator picks the cheapest row meeting T_XPro")
	return t, nil
}

func min2(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

// ExtImportance measures which signal domains each trained classifier
// actually leans on, via permutation importance — the measurable form of
// the paper's §2.1 motivation ("ECG has salient features in the
// time-domain, EEG is with a good data representation under discrete
// wavelet transform") and of the claim that random-subspace training
// "can identify their preferences".
func ExtImportance(l *Lab) (*Table, error) {
	t := &Table{
		ID:     "ext-importance",
		Title:  "EXTENSION: domain importance of each trained classifier (permutation)",
		Header: []string{"Case", "TimeDomain", "DWT1-3", "DWT4-5+A", "TopFeature"},
	}
	for _, sym := range l.Symbols() {
		inst, err := l.Instance(sym)
		if err != nil {
			return nil, err
		}
		eval := &biosig.Dataset{SegLen: inst.Test.SegLen, Segs: inst.Test.Segs[:minIntE(150, len(inst.Test.Segs))]}
		shares, err := inst.Ens.DomainImportance(eval, 2, 99)
		if err != nil {
			return nil, err
		}
		imps, err := inst.Ens.PermutationImportance(eval, 2, 99)
		if err != nil {
			return nil, err
		}
		timeShare := shares[ensemble.TimeDomain]
		var shallow, deep float64
		for d := 1; d <= 3; d++ {
			shallow += shares[d]
		}
		for d := 4; d < ensemble.NumDomains; d++ {
			deep += shares[d]
		}
		top := "-"
		if len(imps) > 0 && imps[0].Drop > 0 {
			top = imps[0].Feature.String()
		}
		t.AddRow(sym, pct(timeShare), pct(shallow), pct(deep), top)
	}
	t.AddNote("shares of total margin-based permutation-importance mass; §2.1's EEG-prefers-DWT and EMG-prefers-time heterogeneity reproduces clearly (our synthetic ECG morphology also loads mid-band wavelets)")
	return t, nil
}

// ExtWireBits sweeps the feature wire width: narrower payloads cut the
// transmission energy of feature-offloading cuts but add quantization
// noise at every crossing. The table reports, per width, the generated
// cut's sensor energy and its classification accuracy through the
// quantizing pipeline.
func ExtWireBits(l *Lab) (*Table, error) {
	t := &Table{
		ID:     "ext-wirebits",
		Title:  "EXTENSION: feature wire width vs energy and accuracy (E1, 90nm, Model 2)",
		Header: []string{"FeatureBits", "CrossEnergy(µJ)", "Cells(sensor/agg)", "Accuracy"},
	}
	inst, err := l.Instance("E1")
	if err != nil {
		return nil, err
	}
	evalSet := &biosig.Dataset{SegLen: inst.Test.SegLen, Segs: inst.Test.Segs[:160]}
	cpu := aggregator.CortexA8()
	for _, bits := range []int64{4, 8, 16} {
		g, err := topology.BuildWith(inst.Ens, inst.Test.SegLen, topology.Options{FeatureBits: bits})
		if err != nil {
			return nil, err
		}
		mk := func(p partition.Placement) (*xsystem.System, error) {
			return xsystem.New(g, inst.Ens, celllib.P90, evalLink, cpu, p, l.SampleRateHz)
		}
		a, err := mk(partition.InAggregator(g))
		if err != nil {
			return nil, err
		}
		s, err := mk(partition.InSensor(g))
		if err != nil {
			return nil, err
		}
		limit := a.DelayPerEvent().Total()
		if d := s.DelayPerEvent().Total(); d < limit {
			limit = d
		}
		res, err := a.Problem().Generate(func(p partition.Placement) float64 {
			return a.DelayOf(p).Total()
		}, limit)
		if err != nil {
			return nil, err
		}
		c, err := mk(res.Placement)
		if err != nil {
			return nil, err
		}
		acc, err := c.Accuracy(evalSet)
		if err != nil {
			return nil, err
		}
		ns, na := res.Placement.Counts()
		t.AddRow(fmt.Sprint(bits), uj(c.EnergyPerEvent().SensorTotal()),
			fmt.Sprintf("%d/%d", ns, na), f3(acc))
	}
	t.AddNote("narrow wires make offloading cheaper (more aggregator cells) until quantization erodes accuracy")
	return t, nil
}

// ExtRobustness stresses the trained classifiers with the measurement
// artifacts real wearables suffer (motion, electrode pops, drift, muscle
// noise), measuring accuracy through the cross-end pipeline — including
// its fixed-point cells and wire quantization — as artifact severity
// grows. Clean lab corpora (the paper's and ours) never cover this.
func ExtRobustness(l *Lab) (*Table, error) {
	t := &Table{
		ID:     "ext-robustness",
		Title:  "EXTENSION: cross-end accuracy under measurement artifacts (90nm, Model 2)",
		Header: []string{"Case", "Severity", "Accuracy", "Drop"},
	}
	severities := []float64{0, 0.3, 0.6}
	const evalN = 160
	for _, sym := range l.Symbols() {
		es, err := l.Engines(sym, evalProc, evalLink)
		if err != nil {
			return nil, err
		}
		inst := es.Inst
		clean := &biosig.Dataset{SegLen: inst.Test.SegLen, Segs: inst.Test.Segs[:minIntE(evalN, len(inst.Test.Segs))]}
		var base float64
		for _, sev := range severities {
			rng := rand.New(rand.NewSource(777))
			eval := clean
			if sev > 0 {
				eval, err = biosig.CorruptDataset(clean, 0.5, sev, rng)
				if err != nil {
					return nil, err
				}
			}
			acc, err := es.CrossEnd.Accuracy(eval)
			if err != nil {
				return nil, err
			}
			if sev == 0 {
				base = acc
			}
			t.AddRow(sym, fmt.Sprintf("%.1f", sev), f3(acc), pct(base-acc))
		}
	}
	t.AddNote("half the segments carry one artifact each; severity 0 is the clean baseline")
	return t, nil
}

func minIntE(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// ExtMulticlass exercises the §5.7 multi-classification extension: a
// one-vs-rest EMG gesture classifier whose heads share one functional
// topology. The table reports accuracy, topology growth and the
// generated cut's energy/lifetime versus the single-end engines, using
// the cost-analysis path (functional multi-class execution stays at the
// software-ensemble level).
func ExtMulticlass(l *Lab) (*Table, error) {
	t := &Table{
		ID:     "ext-multiclass",
		Title:  "EXTENSION: one-vs-rest multi-class gestures (§5.7), 90nm, Model 2",
		Header: []string{"Classes", "Accuracy", "Cells", "SVMCells", "A(µJ)", "S(µJ)", "Cross(µJ)", "CrossLife/S"},
	}
	for _, classes := range []int{3, 4} {
		d, err := biosig.GenerateMulticlass(biosig.EMG, 128, 720, classes, 4242)
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(4242))
		train, test := d.Split(0.75, rng)
		cfg := l.Config(4242)
		me, err := ensemble.TrainMulticlass(train, classes, cfg)
		if err != nil {
			return nil, err
		}
		acc, err := me.Accuracy(test)
		if err != nil {
			return nil, err
		}
		g, err := topology.BuildMulti(me, d.SegLen)
		if err != nil {
			return nil, err
		}
		cpu := aggregator.CortexA8()
		mk := func(p partition.Placement) (*xsystem.System, error) {
			return xsystem.New(g, nil, celllib.P90, evalLink, cpu, p, l.SampleRateHz)
		}
		a, err := mk(partition.InAggregator(g))
		if err != nil {
			return nil, err
		}
		s, err := mk(partition.InSensor(g))
		if err != nil {
			return nil, err
		}
		limit := a.DelayPerEvent().Total()
		if ds := s.DelayPerEvent().Total(); ds < limit {
			limit = ds
		}
		res, err := a.Problem().Generate(func(p partition.Placement) float64 {
			return a.DelayOf(p).Total()
		}, limit)
		if err != nil {
			return nil, err
		}
		c, err := mk(res.Placement)
		if err != nil {
			return nil, err
		}
		lifeS, err := s.SensorLifetimeHours()
		if err != nil {
			return nil, err
		}
		lifeC, err := c.SensorLifetimeHours()
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprint(classes), f3(acc), fmt.Sprint(len(g.Cells)),
			fmt.Sprint(g.NumByRole()[topology.RoleSVM]),
			uj(a.EnergyPerEvent().SensorTotal()), uj(s.EnergyPerEvent().SensorTotal()),
			uj(c.EnergyPerEvent().SensorTotal()), f2(lifeC/lifeS))
	}
	t.AddNote("multi-class adds base classifiers only (§5.7); the generator still never loses to the single-end engines")
	return t, nil
}

// ExtBSN exercises the §5.7 multiple-sensor-node extension: an ECG + EEG
// + EMG network sharing one aggregator.
func ExtBSN(l *Lab) (*Table, error) {
	t := &Table{
		ID:     "ext-bsn",
		Title:  "EXTENSION: three-node body sensor network (§5.7), 90nm, Model 2",
		Header: []string{"Node", "Lifetime(h)", "WorstCaseDelay(ms)"},
	}
	cpu := aggregator.CortexA8()
	var nodes []bsn.Node
	for _, sym := range []string{"C1", "E1", "M1"} {
		es, err := l.Engines(sym, evalProc, evalLink)
		if err != nil {
			return nil, err
		}
		nodes = append(nodes, bsn.Node{Name: sym, Sys: es.CrossEnd})
	}
	nw, err := bsn.New(cpu, nodes...)
	if err != nil {
		return nil, err
	}
	lifetimes, err := nw.NodeLifetimes()
	if err != nil {
		return nil, err
	}
	delays := nw.WorstCaseDelay()
	for _, n := range nodes {
		t.AddRow(n.Name, fmt.Sprintf("%.0f", lifetimes[n.Name]), ms(delays[n.Name]))
	}
	bottleneck, h, err := nw.BottleneckNode()
	if err != nil {
		return nil, err
	}
	aggLife, err := nw.AggregatorLifetimeHours()
	if err != nil {
		return nil, err
	}
	t.AddNote("bottleneck node %s (%.0f h); shared aggregator sustains the network %.0f h at %.1f%% CPU utilization; real-time %v under a 4 ms bound",
		bottleneck, h, aggLife, nw.AggregatorUtilization()*100, nw.RealTimeOK(4e-3))
	return t, nil
}

// ExtFaults runs the cross-end engine of each case through seeded fault
// scenarios (internal/faults) under the default resilience policy and
// reports how classifications degrade rather than fail: full-fidelity,
// partial fusion of the base scores that arrived, sensor-local results
// whose delivery was lost, and events that produced nothing. A wearable
// cut in the field rides these faults; this table shows how much of the
// timeline each degradation mode absorbs.
func ExtFaults(l *Lab) (*Table, error) {
	t := &Table{
		ID:     "ext-faults",
		Title:  "EXTENSION: graceful degradation under injected faults (90nm, Model 2, 60 events per scenario)",
		Header: []string{"Case", "Scenario", "Full", "Partial", "SensorLocal", "NoResult", "AvgSpent(ms)"},
	}
	scenarios := []string{"outage", "bursty", "flaky"}
	const events = 60
	const seed = 7
	for _, sym := range l.Symbols() {
		es, err := l.Engines(sym, evalProc, evalLink)
		if err != nil {
			return nil, err
		}
		sys := es.CrossEnd
		period := 0.0
		if ev := sys.EventsPerSecond(); ev > 0 {
			period = 1 / ev
		}
		for _, sc := range scenarios {
			plan, err := faults.Scenario(sc, seed, period*events)
			if err != nil {
				return nil, err
			}
			rt, err := adaptive.NewEndRuntime(sys, adaptive.EndConfig{
				Policy: faults.DefaultPolicy(), Plan: plan, Seed: seed, Period: period, FailFast: true,
			})
			if err != nil {
				return nil, err
			}
			var full, partial, local, nores int
			var spent float64
			for i := 0; i < events; i++ {
				ev, err := rt.Serve(sys, es.Inst.Test.Segs[i%len(es.Inst.Test.Segs)], false)
				var failed *xsystem.NoResultError
				if errors.As(err, &failed) {
					ev.Outcome = failed.Outcome
				}
				spent += ev.SpentSeconds
				switch {
				case err != nil:
					nores++
				case ev.Rung == adaptive.RungFull:
					full++
				case ev.Rung == adaptive.RungSensorLocal:
					local++
				default:
					partial++
				}
				rt.Tick()
			}
			t.AddRow(sym, sc, fmt.Sprint(full), fmt.Sprint(partial), fmt.Sprint(local),
				fmt.Sprint(nores), fmt.Sprintf("%.3f", spent/events*1e3))
		}
	}
	t.AddNote("the breaker fails fast during hard outages (NoResult when no sensor-side fallback is consulted here); the public engine additionally reroutes those events through the in-sensor fallback cut")
	return t, nil
}

// ExtAdaptive soaks the cross-end engine of each case through a seeded
// channel-drift storm (internal/chaos, "cyclone" profile: a 90%-loss
// burst over the middle of the run, behind a persistent link-layer MAC
// that keeps retransmitting instead of dropping) three ways:
// the static built cut, the static cut behind the resilience ladder,
// and the ladder plus the adaptive re-cut controller. The table is the
// closed-loop claim in numbers: under sustained drift the adaptive
// variant should spend no more sensor energy than the static cut and
// violate the deadline no more often than the ladder alone.
func ExtAdaptive(l *Lab) (*Table, error) {
	t := &Table{
		ID:     "ext-adaptive",
		Title:  "EXTENSION: adaptive repartitioning under channel drift (90nm, Model 3, cyclone profile, 200 events)",
		Header: []string{"Case", "Variant", "Violations", "NoResult", "Energy(µJ)", "Swaps", "Rollbacks", "FinalSensorCells"},
	}
	const seed = 7
	const events = 200
	for _, sym := range l.Symbols() {
		es, err := l.Engines(sym, evalProc, wireless.Model3())
		if err != nil {
			return nil, err
		}
		res, err := chaos.Soak(es.CrossEnd, es.Inst.Test.Segs, chaos.Config{
			Profile: "cyclone", Seed: seed, Events: events, LinkRetries: 16,
		})
		if err != nil {
			return nil, err
		}
		for _, v := range []chaos.VariantStats{res.Static, res.Ladder, res.Adaptive} {
			t.AddRow(sym, v.Name, fmt.Sprint(v.Violations), fmt.Sprint(v.NoResult),
				fmt.Sprintf("%.1f", v.SensorEnergyJ*1e6),
				fmt.Sprint(v.Swaps), fmt.Sprint(v.Rollbacks), fmt.Sprint(v.FinalSensorCells))
		}
		t.AddNote("%s: adaptive %d violations (ladder %d, static %d) at %.1f µJ (static %.1f µJ; static pays nothing for its %d dropped events); dominates: %v",
			sym, res.Adaptive.Violations, res.Ladder.Violations, res.Static.Violations,
			res.Adaptive.SensorEnergyJ*1e6, res.Static.SensorEnergyJ*1e6,
			res.Static.NoResult, res.AdaptiveDominates())
	}
	t.AddNote("every hot-swapped cut stays a valid s-t cut of the dataflow graph; rollback re-installs the previous cut when a fresh one violates its probation")
	return t, nil
}

// ExtCorruption measures the data-plane integrity layer as an
// experiment: the same seeded bit-flip storm (the "corrupt" scenario —
// BER 10⁻³ over the middle third of the run) replayed against each
// case's cross-end engine twice, on the bare legacy wire and behind
// the framed transport (CRC-16 + sequence numbers, hold-last
// imputation). Accuracy is agreement with the clean-channel labels of
// the same segments; Corrupt counts CRC-rejected frames (framed) or
// bit-flipped values consumed undetected (bare); Imputed counts values
// reconstructed after residual frame loss; Overhead is the framed
// run's sensor energy relative to bare — the price of the envelope
// bits plus the CRC-triggered retries.
func ExtCorruption(l *Lab) (*Table, error) {
	t := &Table{
		ID:     "ext-corruption",
		Title:  "EXTENSION: framed transport vs bare wire under a seeded bit-flip storm (90nm, Model 2, corrupt scenario, 80 events)",
		Header: []string{"Case", "Wire", "Accuracy", "Corrupt", "Imputed", "Energy(µJ)", "Overhead"},
	}
	const events = 80
	const seed = 7
	for _, sym := range l.Symbols() {
		es, err := l.Engines(sym, evalProc, evalLink)
		if err != nil {
			return nil, err
		}
		sys := es.CrossEnd
		period := 0.0
		if ev := sys.EventsPerSecond(); ev > 0 {
			period = 1 / ev
		}
		segAt := func(i int) biosig.Segment {
			return es.Inst.Test.Segs[i%len(es.Inst.Test.Segs)]
		}
		clean := make([]int, events)
		for i := range clean {
			if clean[i], err = sys.Classify(segAt(i)); err != nil {
				return nil, fmt.Errorf("ext-corruption %s clean event %d: %w", sym, i, err)
			}
		}
		type wireStats struct {
			match, corrupt, imputed int
			energy                  float64
		}
		runWire := func(fr *faults.Framing) (wireStats, error) {
			var ws wireStats
			plan, err := faults.Scenario("corrupt", seed, period*events)
			if err != nil {
				return ws, err
			}
			clock := &faults.Clock{}
			link, err := faults.NewLink(evalLink, plan, clock, 0, 6, seed)
			if err != nil {
				return ws, err
			}
			pol := faults.DefaultPolicy()
			for i := 0; i < events; i++ {
				out, cerr := sys.ClassifyOver(segAt(i), &xsystem.ResilientOptions{
					Transport: link, Plan: plan, Clock: clock, Policy: pol, Integrity: fr,
				})
				ws.energy += out.SensorEnergy
				ws.corrupt += out.CorruptFrames + out.CorruptDelivered
				ws.imputed += out.ImputedValues
				if cerr == nil && out.Label == clean[i] {
					ws.match++
				}
				clock.Advance(period)
			}
			return ws, nil
		}
		bare, err := runWire(nil)
		if err != nil {
			return nil, err
		}
		framed, err := runWire(&faults.Framing{Impute: frame.HoldLast})
		if err != nil {
			return nil, err
		}
		acc := func(ws wireStats) string { return f3(float64(ws.match) / events) }
		t.AddRow(sym, "bare", acc(bare), fmt.Sprint(bare.corrupt), fmt.Sprint(bare.imputed),
			fmt.Sprintf("%.1f", bare.energy*1e6), "1.00x")
		t.AddRow(sym, "framed", acc(framed), fmt.Sprint(framed.corrupt), fmt.Sprint(framed.imputed),
			fmt.Sprintf("%.1f", framed.energy*1e6), fmt.Sprintf("%.2fx", framed.energy/bare.energy))
		t.AddNote("%s: bare wire consumed %d corrupted values undetected; framing rejected %d frames at the CRC and delivered none corrupt",
			sym, bare.corrupt, framed.corrupt)
	}
	t.AddNote("accuracy is agreement with the clean-channel labels of the same event stream; the framed rows buy detection with envelope bits and retries")
	return t, nil
}

// ExtParallel measures the fleet-serving tentpole as an experiment:
// the same event batch classified sequentially and through the shared
// worker pool (internal/serve.ParallelEach), reporting throughput,
// per-event latency quantiles and the pooled/sequential speedup. The
// non-resilient classify path is a pure function of (segment, cut) —
// one atomic load of the active system per event — so beyond the
// speedup the experiment asserts the stronger property the test
// battery relies on: pooled labels are bit-identical to sequential.
// On a single-core runner the speedup hovers around 1×; the column
// earns its keep on multi-core hosts.
func ExtParallel(l *Lab) (*Table, error) {
	workers := l.ParallelWorkers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	t := &Table{
		ID: "ext-parallel",
		Title: fmt.Sprintf(
			"EXTENSION: worker-pool serving vs sequential (90nm, Model 2, %d workers, GOMAXPROCS=%d, 240 events)",
			workers, runtime.GOMAXPROCS(0)),
		Header: []string{"Case", "Mode", "Throughput(ev/s)", "p50(µs)", "p99(µs)", "Speedup"},
	}
	const events = 240
	quantile := func(lat []float64, q float64) float64 {
		s := append([]float64(nil), lat...)
		sort.Float64s(s)
		i := int(q * float64(len(s)-1))
		return s[i]
	}
	for _, sym := range l.Symbols() {
		es, err := l.Engines(sym, evalProc, evalLink)
		if err != nil {
			return nil, err
		}
		sys := es.CrossEnd
		segs := make([]biosig.Segment, events)
		for i := range segs {
			segs[i] = es.Inst.Test.Segs[i%len(es.Inst.Test.Segs)]
		}

		seqLabels := make([]int, events)
		seqLat := make([]float64, events)
		seqStart := time.Now()
		for i, seg := range segs {
			t0 := time.Now()
			if seqLabels[i], err = sys.Classify(seg); err != nil {
				return nil, fmt.Errorf("ext-parallel %s sequential event %d: %w", sym, i, err)
			}
			seqLat[i] = time.Since(t0).Seconds()
		}
		seqElapsed := time.Since(seqStart).Seconds()

		parLabels := make([]int, events)
		parLat := make([]float64, events)
		parStart := time.Now()
		err = serve.ParallelEach(events, workers, func(i int) error {
			t0 := time.Now()
			label, err := sys.Classify(segs[i])
			if err != nil {
				return err
			}
			parLabels[i] = label
			parLat[i] = time.Since(t0).Seconds()
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("ext-parallel %s pooled: %w", sym, err)
		}
		parElapsed := time.Since(parStart).Seconds()

		for i := range seqLabels {
			if parLabels[i] != seqLabels[i] {
				return nil, fmt.Errorf("ext-parallel %s: pooled label diverged from sequential at event %d (%d vs %d)",
					sym, i, parLabels[i], seqLabels[i])
			}
		}
		t.AddRow(sym, "sequential",
			fmt.Sprintf("%.0f", float64(events)/seqElapsed),
			fmt.Sprintf("%.0f", quantile(seqLat, 0.50)*1e6),
			fmt.Sprintf("%.0f", quantile(seqLat, 0.99)*1e6),
			"1.00")
		t.AddRow(sym, "pooled",
			fmt.Sprintf("%.0f", float64(events)/parElapsed),
			fmt.Sprintf("%.0f", quantile(parLat, 0.50)*1e6),
			fmt.Sprintf("%.0f", quantile(parLat, 0.99)*1e6),
			fmt.Sprintf("%.2f", seqElapsed/parElapsed))
	}
	t.AddNote("pooled labels verified bit-identical to sequential for every event; speedup is wall-clock and scales with cores, not with the worker count alone")
	return t, nil
}

// ExtOverload replays the seeded flash-crowd battery (internal/chaos,
// "flash-crowd" profile: 10x demand surges overlapping 60%-loss bursts
// on the same channels) against each case's cross-end engine behind
// the deadline-aware admission controller. The acceptance claim in
// numbers: under a 10x offered crowd the admitted p99 stays within 2x
// the infinite-server baseline of the identical arrival stream, alert
// traffic is never refused, and interactive is only shed inside
// windows where batch shed too.
func ExtOverload(l *Lab) (*Table, error) {
	t := &Table{
		ID:     "ext-overload",
		Title:  "EXTENSION: flash-crowd overload with deadline-aware admission (90nm, Model 3, flash-crowd profile, 10x surge)",
		Header: []string{"Case", "Offered", "ShedB/I/A", "PoolFull", "BaseP99(ms)", "OverP99(ms)", "P99<=2x", "StrictPrio", "MaxQ"},
	}
	const seed = 7
	for _, sym := range l.Symbols() {
		es, err := l.Engines(sym, evalProc, wireless.Model3())
		if err != nil {
			return nil, err
		}
		res, err := chaos.FlashCrowd(es.CrossEnd, es.Inst.Test.Segs, chaos.FlashCrowdConfig{Seed: seed})
		if err != nil {
			return nil, err
		}
		strict := "yes"
		if err := res.StrictPriority(); err != nil {
			strict = "VIOLATED"
		}
		ov := res.Overload
		t.AddRow(sym, fmt.Sprint(ov.Offered),
			fmt.Sprintf("%d/%d/%d", ov.ShedByClass[0], ov.ShedByClass[1], ov.ShedByClass[2]),
			fmt.Sprint(ov.PoolFull),
			fmt.Sprintf("%.3f", res.Baseline.LatencyP99S*1e3),
			fmt.Sprintf("%.3f", ov.LatencyP99S*1e3),
			fmt.Sprint(res.LatencyBounded(2)), strict, fmt.Sprint(ov.MaxQueueLen))
	}
	t.AddNote("baseline is the identical surge-weighted arrival stream served with no queueing; the 2x bound isolates what contention adds")
	t.AddNote("sheds are strictly ShedB >= ShedI and ShedA = 0: the occupancy shares are monotone by class and alert bypasses them")
	t.AddNote("seeded replay of the whole battery — stats, shed log, brownout log — is bit-identical (TestFlashCrowdReplay)")
	return t, nil
}
