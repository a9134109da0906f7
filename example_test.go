package xpro_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"log"
	"os"
	"sort"
	"strings"
	"sync"

	"xpro"
)

// ExampleCases lists the six Table 1 test cases.
func ExampleCases() {
	for _, c := range xpro.Cases() {
		fmt.Printf("%s %s %s %d×%d\n", c.Symbol, c.Name, c.Family, c.SegmentCount, c.SegmentLength)
	}
	// Output:
	// C1 ECGTwoLead ECG 1162×82
	// C2 ECGFiveDays ECG 884×136
	// E1 EEGDifficult01 EEG 1000×128
	// E2 EEGDifficult02 EEG 1000×128
	// M1 EMGHandLat EMG 1200×132
	// M2 EMGHandTip EMG 1200×132
}

// ExampleNew builds a cross-end engine and classifies one segment.
// (Compile-checked; run `go run ./examples/quickstart` for live output.)
func ExampleNew() {
	eng, err := xpro.New(xpro.Config{Case: "C1"})
	if err != nil {
		log.Fatal(err)
	}
	seg := eng.TestSet()[0]
	label, err := eng.Classify(seg.Samples)
	if err != nil {
		log.Fatal(err)
	}
	rep := eng.Report()
	fmt.Printf("predicted %d (true %d); battery life %.0f h, delay %.2f ms\n",
		label, seg.Label, rep.SensorLifetimeHours, rep.DelayPerEventSeconds*1e3)
}

// ExampleCompare prints all four engine distributions for one case.
func ExampleCompare() {
	reps, err := xpro.Compare(xpro.Config{Case: "M1"})
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range reps {
		fmt.Printf("%-14s %6.3f µJ/event, %5.0f h\n",
			r.Kind, r.SensorEnergyPerEvent*1e6, r.SensorLifetimeHours)
	}
}

// ExampleRunExperiments regenerates one paper figure.
func ExampleRunExperiments() {
	if err := xpro.RunExperiments(os.Stdout, "fig4", xpro.ProtocolFast); err != nil {
		log.Fatal(err)
	}
}

// ExampleEngine_Observer classifies one segment and inspects the
// telemetry it produced: the Prometheus-style counters and the per-cell
// span trace.
func ExampleEngine_Observer() {
	eng, err := xpro.New(xpro.Config{Case: "C1"})
	if err != nil {
		log.Fatal(err)
	}
	if _, err := eng.Classify(eng.TestSet()[0].Samples); err != nil {
		log.Fatal(err)
	}
	obs := eng.Observer()

	var buf bytes.Buffer
	if err := obs.WriteMetricsText(&buf); err != nil {
		log.Fatal(err)
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.HasPrefix(line, "xpro_classify_total") {
			fmt.Println(line)
		}
	}

	perCell := 0
	for _, sp := range obs.Spans() {
		if sp.End == "sensor" || sp.End == "aggregator" {
			perCell++
		}
	}
	fmt.Printf("one span per executed cell: %v\n", perCell == eng.Report().Cells)
	// Output:
	// xpro_classify_total 1
	// one span per executed cell: true
}

// ExampleEngine_ClassifyResult forces a hard link outage and shows the
// engine degrading gracefully: the classification still returns — served
// from the sensor side — tagged Degraded instead of erroring.
func ExampleEngine_ClassifyResult() {
	plan := &xpro.FaultPlan{Windows: []xpro.FaultWindow{
		{Kind: "link-outage", StartSeconds: 0, EndSeconds: 60},
	}}
	eng, err := xpro.New(xpro.Config{Case: "C1", FaultPlan: plan})
	if err != nil {
		log.Fatal(err)
	}
	res, err := eng.ClassifyResult(eng.TestSet()[0].Samples)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("degraded=%v mode=%s breaker=%s\n", res.Degraded, res.Mode, res.Breaker)
	// Output:
	// degraded=true mode=sensor-local breaker=closed
}

// ExampleEngine_AdaptiveStatus arms closed-loop adaptive repartitioning and
// rides out a heavy loss storm: the channel estimator watches the link
// degrade, the controller re-prices the min-cut under the estimated
// channel and retreats the active cut to the in-sensor anchor while
// retransmissions are expensive, then swaps back once the air clears.
func ExampleEngine_AdaptiveStatus() {
	plan := &xpro.FaultPlan{
		Windows: []xpro.FaultWindow{
			{Kind: "loss-burst", StartSeconds: 2.5, EndSeconds: 10, Loss: 0.9},
		},
		Seed: 7,
	}
	eng, err := xpro.New(xpro.Config{Case: "E2", Wireless: xpro.WirelessModel3,
		FaultPlan: plan, Adaptive: xpro.DefaultAdaptive()})
	if err != nil {
		log.Fatal(err)
	}
	test := eng.TestSet()
	for i := 0; i < 200; i++ {
		if _, err := eng.Classify(test[i%len(test)].Samples); err != nil {
			log.Fatal(err)
		}
	}
	cells := eng.Report().Cells
	st := eng.AdaptiveStatus()
	retreated, recovered := false, false
	for _, d := range eng.RecutLog() {
		if d.Kind == "swap" && d.SensorCellsAfter == cells {
			retreated = true
		}
		if retreated && d.Kind == "swap" && d.SensorCellsAfter < cells {
			recovered = true
		}
	}
	fmt.Printf("stormed: retreated to in-sensor: %v\n", retreated)
	fmt.Printf("cleared: back on a cross-end cut: %v\n", recovered && st.SensorCells < cells)
	fmt.Printf("probation still pending: %v\n", st.OnProbation)
	// Output:
	// stormed: retreated to in-sensor: true
	// cleared: back on a cross-end cut: true
	// probation still pending: false
}

// ExampleNetwork_Serve runs a two-subject body sensor network behind
// the sharded worker pool: each subject's events are served FIFO on a
// dedicated worker (preserving every engine's modeled timeline) while
// different subjects classify concurrently.
func ExampleNetwork_Serve() {
	chest, err := xpro.New(xpro.Config{Case: "C1"})
	if err != nil {
		log.Fatal(err)
	}
	wrist, err := xpro.New(xpro.Config{Case: "M1"})
	if err != nil {
		log.Fatal(err)
	}
	net, err := xpro.NewNetwork(map[string]*xpro.Engine{"chest": chest, "wrist": wrist})
	if err != nil {
		log.Fatal(err)
	}
	fleet, err := net.Serve(xpro.ServeOptions{Workers: 4})
	if err != nil {
		log.Fatal(err)
	}
	defer fleet.Close()

	reqs := []xpro.FleetRequest{
		{Subject: "chest", Samples: chest.TestSet()[0].Samples},
		{Subject: "wrist", Samples: wrist.TestSet()[0].Samples},
		{Subject: "chest", Samples: chest.TestSet()[1].Samples},
	}
	results := fleet.ClassifyBatch(context.Background(), reqs)

	match := true
	for i, r := range results {
		if r.Err != nil {
			log.Fatal(r.Err)
		}
		var eng *xpro.Engine
		if r.Subject == "chest" {
			eng = chest
		} else {
			eng = wrist
		}
		direct, err := eng.Classify(reqs[i].Samples)
		if err != nil {
			log.Fatal(err)
		}
		if direct != r.Result.Label {
			match = false
		}
	}
	fmt.Printf("served %d events for %d subjects on %d workers\n",
		len(results), len(fleet.Subjects()), fleet.Workers())
	fmt.Printf("fleet labels match direct engine calls: %v\n", match)
	// Output:
	// served 3 events for 2 subjects on 4 workers
	// fleet labels match direct engine calls: true
}

// ExampleEngine_ClassifyResult_suspectData arms the data-plane
// integrity layer and feeds the engine a flatlined lead — a detached
// electrode. The signal-quality admission gate refuses to dress the
// garbage up as a diagnosis: the event comes back quarantined on the
// suspect-data rung with a typed error naming the evidence.
func ExampleEngine_ClassifyResult_suspectData() {
	eng, err := xpro.New(xpro.Config{Case: "C1", Integrity: xpro.DefaultIntegrity()})
	if err != nil {
		log.Fatal(err)
	}
	flat := make([]float64, len(eng.TestSet()[0].Samples))
	for i := range flat {
		flat[i] = 0.5
	}
	res, err := eng.ClassifyResult(flat)
	var suspect *xpro.SuspectDataError
	fmt.Printf("suspect=%v reasons=%v\n", errors.Is(err, xpro.ErrSuspectData), errors.As(err, &suspect) && suspect.Reasons[0] == "flatline")
	fmt.Printf("mode=%s degraded=%v\n", res.Mode, res.Degraded)
	// Output:
	// suspect=true reasons=true
	// mode=suspect-data degraded=true
}

// ExampleNetwork_SLOReport polls the fleet-wide service-level summary:
// latency quantiles over the union of every node's rolling window,
// degradation-ladder accounting, and per-node battery headroom against
// the bottleneck node. The same payload is served on the introspection
// server's /slo endpoint; /healthz answers 503 while the fleet is
// degraded.
func ExampleNetwork_SLOReport() {
	chest, err := xpro.New(xpro.Config{Case: "C1"})
	if err != nil {
		log.Fatal(err)
	}
	wrist, err := xpro.New(xpro.Config{Case: "M1"})
	if err != nil {
		log.Fatal(err)
	}
	net, err := xpro.NewNetwork(map[string]*xpro.Engine{"chest": chest, "wrist": wrist})
	if err != nil {
		log.Fatal(err)
	}
	for _, eng := range []*xpro.Engine{chest, wrist} {
		for i := 0; i < 3; i++ {
			if _, err := eng.Classify(eng.TestSet()[i].Samples); err != nil {
				log.Fatal(err)
			}
		}
	}

	rep, err := net.SLOReport()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("events: %d in window, %d total\n", rep.WindowEvents, rep.TotalEvents)
	fmt.Printf("full-fidelity answers: %d, degraded ratio %.1f, suspect rate %.1f\n",
		rep.Modes["full"], rep.DegradedRatio, rep.SuspectRate)
	fmt.Printf("latency quantiles ordered: %v\n",
		rep.LatencyP50Seconds > 0 && rep.LatencyP50Seconds <= rep.LatencyP95Seconds &&
			rep.LatencyP95Seconds <= rep.LatencyP99Seconds)
	bottleneck := rep.Nodes[rep.BottleneckNode]
	fmt.Printf("bottleneck headroom: %.0f h, nodes tracked: %d\n",
		bottleneck.HeadroomHours, len(rep.Nodes))
	fmt.Printf("health: %s\n", net.Health().Status)
	// Output:
	// events: 6 in window, 6 total
	// full-fidelity answers: 6, degraded ratio 0.0, suspect rate 0.0
	// latency quantiles ordered: true
	// bottleneck headroom: 0 h, nodes tracked: 2
	// health: ok
}

// ExampleFleet_priority serves a fleet with overload protection and
// drives it into saturation: the bounded queue fills with alert
// traffic (which admission never sheds — only the full pool itself
// refuses it), and a batch submission against the standing queue is
// refused at the door with a typed *ShedError naming the reason.
//
// The single worker is parked inside its first classification while
// the queue fills, so what the queue holds is set by the submissions
// alone, not by how fast the worker drains it.
func ExampleFleet_priority() {
	chest, err := xpro.New(xpro.Config{Case: "E1", Resilience: xpro.DefaultResilience()})
	if err != nil {
		log.Fatal(err)
	}
	// A resilient engine logs every classification to its event sink
	// before returning it; this sink holds the first one.
	sink := &parkingSink{parked: make(chan struct{}), release: make(chan struct{})}
	chest.Observer().SetEventSink(sink)
	net, err := xpro.NewNetwork(map[string]*xpro.Engine{"chest": chest})
	if err != nil {
		log.Fatal(err)
	}
	ov := xpro.DefaultOverload()
	ov.BatchShare = 0.25 // batch may hold 2 of the 8 queue slots
	fleet, err := net.Serve(xpro.ServeOptions{Workers: 1, QueueDepth: 8, Overload: ov})
	if err != nil {
		log.Fatal(err)
	}
	defer fleet.Close()

	seg := chest.TestSet()[0].Samples
	alert := xpro.FleetRequest{Subject: "chest", Samples: seg, Priority: xpro.PriorityAlert}
	if _, err := fleet.SubmitRequest(context.Background(), alert); err != nil {
		log.Fatal(err)
	}
	<-sink.parked
	var errAlert error
	for i := 0; i < 100000; i++ { // flood until the bounded queue is full
		if _, errAlert = fleet.SubmitRequest(context.Background(), alert); errAlert != nil {
			break
		}
	}
	fmt.Println("alert refusal is pool backpressure:", errors.Is(errAlert, xpro.ErrOverloaded))

	batch := xpro.FleetRequest{Subject: "chest", Samples: seg, Priority: xpro.PriorityBatch}
	_, errBatch := fleet.SubmitRequest(context.Background(), batch)
	close(sink.release)
	var shed *xpro.ShedError
	if !errors.As(errBatch, &shed) {
		log.Fatal(errBatch)
	}
	fmt.Println("batch shed reason:", shed.Reason)
	fmt.Println("shed priority:", shed.Priority)
	fmt.Println("alert sheds by admission:", fleet.OverloadStatus().Sheds["alert"])
	// Output:
	// alert refusal is pool backpressure: true
	// batch shed reason: occupancy
	// shed priority: batch
	// alert sheds by admission: 0
}

// parkingSink is an event sink whose first write blocks until release
// is closed, parking the goroutine that logs it; parked is closed when
// it arrives.
type parkingSink struct {
	parked, release chan struct{}
	once            sync.Once
}

func (s *parkingSink) Write(p []byte) (int, error) {
	s.once.Do(func() {
		close(s.parked)
		<-s.release
	})
	return len(p), nil
}

// ExampleNetwork_threeTier plans a two-subject network over the
// canonical sensor → hub → cloud chain. C1's cheap topology stays on
// the sensor; E1 splits, shipping its fusion stage to the unweighted
// cloud — 24% below the best placement any single cut could express.
func ExampleNetwork_threeTier() {
	engines := map[string]*xpro.Engine{}
	for _, sym := range []string{"C1", "E1"} {
		eng, err := xpro.New(xpro.Config{Case: sym})
		if err != nil {
			log.Fatal(err)
		}
		engines[sym] = eng
	}
	net, err := xpro.NewNetwork(engines)
	if err != nil {
		log.Fatal(err)
	}
	plans, err := net.PlanTiers(3)
	if err != nil {
		log.Fatal(err)
	}
	names := make([]string, 0, len(plans))
	for name := range plans {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		rep, err := plans[name].Report()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s:", name)
		for _, tl := range rep.Tiers {
			fmt.Printf(" %s=%d", tl.Name, tl.Cells)
		}
		fmt.Printf(" uplinkBits=%d ratio=%.2f\n", rep.HopDataBits[1], rep.WeightedCostJ/rep.BiPartitionCostJ)
	}
	// Output:
	// C1: sensor=56 hub=0 cloud=0 uplinkBits=16 ratio=1.00
	// E1: sensor=31 hub=0 cloud=22 uplinkBits=344 ratio=0.76
}

// ExampleNetwork_threeTier_faults arms a subject's three-tier plan
// against seeded hub storms and classifies through the tier-collapse
// ladder: when the hub goes dark the placement collapses to the
// sensor-local rung, capped-backoff probes test the dark hops, and the
// chain climbs back to full height once the storm clears. Every knob
// is scaled to the engine's event period, and one seed replays one
// identical run.
func ExampleNetwork_threeTier_faults() {
	eng, err := xpro.New(xpro.Config{Case: "C1"})
	if err != nil {
		log.Fatal(err)
	}
	net, err := xpro.NewNetwork(map[string]*xpro.Engine{"wrist": eng})
	if err != nil {
		log.Fatal(err)
	}
	plans, err := net.PlanTiers(3)
	if err != nil {
		log.Fatal(err)
	}
	p := plans["wrist"]
	// C1's optimum parks every cell in-sensor; pin the placement to the
	// cloud extreme so the chain genuinely crosses both hops.
	if err := p.PinAll(2); err != nil {
		log.Fatal(err)
	}
	const events = 200
	period := 1 / eng.Report().EventsPerSecond
	pol := xpro.DefaultResilience()
	pol.BreakerCooldownSeconds = 25 * period
	err = p.Arm(&xpro.TierResilience{
		Policy:         pol,
		HubStorms:      3,
		HorizonSeconds: events * period,
		Seed:           7,
		Collapse: &xpro.TierCollapse{
			FailThreshold:      2,
			ProbeAfterSeconds:  10 * period,
			ProbeBackoffFactor: 2,
			MaxProbeSeconds:    120 * period,
			RecoverySuccesses:  1,
			ProbationEvents:    3,
		},
		Framed: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	test := eng.TestSet()
	served := map[int]int{}
	degraded := 0
	for i := 0; i < events; i++ {
		res, err := p.ClassifyResult(test[i%len(test)].Samples)
		if err != nil {
			var tde *xpro.TierDegradedError
			if !errors.As(err, &tde) {
				log.Fatal(err)
			}
			degraded++ // a lower rung still served the event
		}
		served[res.Tier]++
	}
	collapses, recoveries := 0, 0
	for _, d := range p.Log() {
		switch d.Op {
		case "degrade":
			collapses++
		case "resolve":
			recoveries++
		}
	}
	live := true
	for _, h := range eng.SLOReport().Hops {
		live = live && h.Live
	}
	fmt.Printf("served full-chain=%d sensor-local=%d degraded=%d\n", served[2], served[0], degraded)
	fmt.Printf("collapses=%d recoveries=%d\n", collapses, recoveries)
	fmt.Println("all hops live after the storms:", live)
	// Output:
	// served full-chain=118 sensor-local=82 degraded=6
	// collapses=2 recoveries=2
	// all hops live after the storms: true
}
