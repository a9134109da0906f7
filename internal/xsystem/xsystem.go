// Package xsystem simulates a complete XPro wearable computing system:
// a sensor node executing the in-sensor analytic part in Q16.16
// hardware cells, a wireless link, and an aggregator executing the
// in-aggregator part in software (Fig. 2, right).
//
// The simulator does two jobs:
//
//   - Functional execution: Classify pushes a real segment through the
//     partitioned pipeline, computing fixed-point values on the sensor
//     and float64 values on the aggregator, so the cross-end engine's
//     classification output can be validated against the pure-software
//     ensemble.
//
//   - Cost accounting: per-event energy (Eqs. 1–3) split into sensing,
//     compute, transmit and receive on both ends, and per-event delay
//     split into front-end compute, wireless and back-end compute — the
//     three stacked components of Fig. 10. Sensor cells are independent
//     asynchronous hardware units, so the front-end delay is the
//     critical path of the in-sensor subgraph; the aggregator is a
//     single CPU, so back-end delays add.
package xsystem

import (
	"errors"
	"fmt"
	"math"
	"time"

	"xpro/internal/aggregator"
	"xpro/internal/battery"
	"xpro/internal/biosig"
	"xpro/internal/celllib"
	"xpro/internal/dwt"
	"xpro/internal/ensemble"
	"xpro/internal/fixed"
	"xpro/internal/partition"
	"xpro/internal/sensornode"
	"xpro/internal/stats"
	"xpro/internal/telemetry"
	"xpro/internal/topology"
	"xpro/internal/wireless"
)

// System is a fully configured cross-end engine instance.
//
// Building a system (New, WithPlacement) compiles its placement into an
// immutable execution plan (plan.go) priced from HW, CPU and Link as
// they are at that moment: DelayPerEvent, EnergyPerEvent and the event
// walks read the plan. Treat Graph, HW, CPU, Link and Placement as
// read-only afterwards; derive a sibling with WithPlacement instead.
// DelayOf alone prices from the receiver's current Link, CPU and HW.
type System struct {
	Graph     *topology.Graph
	Ens       *ensemble.Ensemble
	HW        *sensornode.Hardware
	CPU       aggregator.CPU
	Link      wireless.Model
	Placement partition.Placement
	// SampleRateHz sets the event rate (events/s = rate / segment len).
	SampleRateHz float64

	// Metrics receives the system's runtime counters; nil falls back to
	// telemetry.Default(). Set it before serving traffic.
	Metrics *telemetry.Registry
	// Tracer, when set (or when a process default is installed with
	// telemetry.SetDefaultTracer), records one span per executed cell
	// during Classify: cell name, end, measured wall time, and the
	// modeled per-activation energy and delay.
	Tracer *telemetry.Tracer

	problem *partition.Problem
	plan    *placementPlan
}

// metrics returns the effective registry (never nil-dereferenced:
// telemetry handles tolerate nil).
func (s *System) metrics() *telemetry.Registry {
	if s.Metrics != nil {
		return s.Metrics
	}
	return telemetry.Default()
}

// tracer returns the effective span sink; usually nil (tracing is
// opt-in).
func (s *System) tracer() *telemetry.Tracer {
	if s.Tracer != nil {
		return s.Tracer
	}
	return telemetry.DefaultTracer()
}

// CellCost returns the modeled per-activation energy (J) and delay (s)
// of cell id on the end the placement assigned it to.
func (s *System) CellCost(id topology.CellID) (energyJ, delayS float64) {
	if s.Placement.OnSensor(id) {
		return s.HW.Energy(id), s.HW.Delay(id)
	}
	cc := s.CPU.CellCost(s.Graph.Cells[id].Spec)
	return cc.Energy, cc.Delay
}

// New builds a system for a trained ensemble, a characterized topology
// and a placement. proc selects the sensor process node.
//
// ens may be nil for cost-analysis-only systems (e.g. multi-class
// topologies built with topology.BuildMulti): energy, delay and lifetime
// work as usual, while Classify and Accuracy return an error.
func New(g *topology.Graph, ens *ensemble.Ensemble, proc celllib.Process, link wireless.Model, cpu aggregator.CPU, p partition.Placement, sampleRateHz float64) (*System, error) {
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("xsystem: %w", err)
	}
	if err := cpu.Validate(); err != nil {
		return nil, err
	}
	order, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}
	hw := sensornode.Characterize(g, proc)
	sensing, err := sensornode.SensingEnergyPerEvent(g.SegLen, sampleRateHz)
	if err != nil {
		return nil, fmt.Errorf("xsystem: %w", err)
	}
	prob := partition.NewProblem(g, hw, link, sensing, func(id topology.CellID) float64 {
		return cpu.CellCost(g.Cells[id].Spec).Delay
	})
	if err := checkPlacement(prob, p); err != nil {
		return nil, err
	}
	s := &System{
		Graph:        g,
		Ens:          ens,
		HW:           hw,
		CPU:          cpu,
		Link:         link,
		Placement:    p,
		SampleRateHz: sampleRateHz,
		problem:      prob,
	}
	s.plan = s.compilePlacement(compileGraph(g, order, prob.View()))
	return s, nil
}

// Problem exposes the pricing problem used by this system (shared with
// the Automatic XPro Generator).
func (s *System) Problem() *partition.Problem { return s.problem }

// WithPlacement returns a copy of the system executing the same trained
// pipeline under a different cut. The copy shares the immutable pieces
// (graph, ensemble, hardware characterization, pricing problem) and
// owns its placement, so it is independent of the receiver — this is
// the hot-swap primitive of the adaptive repartitioning controller:
// installing the returned system is one pointer store.
func (s *System) WithPlacement(p partition.Placement) (*System, error) {
	if err := checkPlacement(s.problem, p); err != nil {
		return nil, err
	}
	ns := *s
	ns.Placement = append(partition.Placement(nil), p...)
	ns.plan = ns.compilePlacement(s.plan.graphPlan)
	return &ns, nil
}

// checkPlacement is the one check New and WithPlacement make of a 2-end
// placement over pr's graph: one entry per cell, each Sensor or
// Aggregator, with the source readers all on one end.
func checkPlacement(pr *partition.Problem, p partition.Placement) error {
	if len(p) != len(pr.Graph.Cells) {
		return fmt.Errorf("xsystem: placement covers %d cells, graph has %d", len(p), len(pr.Graph.Cells))
	}
	for id, e := range p {
		if e != partition.Sensor && e != partition.Aggregator {
			return fmt.Errorf("xsystem: placement puts cell %d on end %d, neither sensor nor aggregator", id, int(e))
		}
	}
	if !pr.GroupedOK(p) {
		return errors.New("xsystem: placement splits a source-reader group across ends")
	}
	return nil
}

// EventsPerSecond returns the segment-analysis rate.
func (s *System) EventsPerSecond() float64 {
	ev, _ := sensornode.EventsPerSecond(s.Graph.SegLen, s.SampleRateHz)
	return ev
}

// Energy is the per-event energy breakdown of both ends.
type Energy struct {
	// Sensor node (Eq. 1): sensing + compute + wireless tx/rx.
	Sensing       float64
	SensorCompute float64
	SensorTx      float64
	SensorRx      float64
	// Aggregator: software compute + its radio.
	AggCompute float64
	AggRx      float64
	AggTx      float64
}

// SensorTotal is the sensor node's per-event energy.
func (e Energy) SensorTotal() float64 {
	return e.Sensing + e.SensorCompute + e.SensorTx + e.SensorRx
}

// SensorWireless is the sensor's communication share.
func (e Energy) SensorWireless() float64 { return e.SensorTx + e.SensorRx }

// AggregatorTotal is the aggregator's per-event energy.
func (e Energy) AggregatorTotal() float64 { return e.AggCompute + e.AggRx + e.AggTx }

// EnergyPerEvent returns the full per-event energy breakdown of the
// system's placement, compiled when the system was built.
func (s *System) EnergyPerEvent() Energy { return s.plan.energy }

// energyOf prices placement p's per-event energy over graph plan gp.
func (s *System) energyOf(gp *graphPlan, p partition.Placement) Energy {
	g := s.Graph
	var e Energy
	e.Sensing = s.problem.SensingEnergy
	for _, id := range p.SensorCells() {
		e.SensorCompute += s.HW.Energy(id)
	}
	for _, id := range p.AggregatorCells() {
		e.AggCompute += s.CPU.CellCost(g.Cells[id].Spec).Energy
	}
	rawSent := false
	for _, id := range gp.readers {
		if !p.OnSensor(id) {
			rawSent = true
			break
		}
	}
	if rawSent {
		tr := s.Link.Cost(g.SourceBits)
		e.SensorTx += tr.TxEnergy
		e.AggRx += tr.RxEnergy
	}
	for i := range gp.groups {
		tg := &gp.groups[i]
		fromS := p.OnSensor(tg.From)
		crosses := false
		for _, c := range tg.Consumers {
			if p.OnSensor(c) != fromS {
				crosses = true
				break
			}
		}
		if !crosses {
			continue
		}
		tr := s.Link.Cost(tg.Bits)
		if fromS {
			e.SensorTx += tr.TxEnergy
			e.AggRx += tr.RxEnergy
		} else {
			e.SensorRx += tr.RxEnergy
			e.AggTx += tr.TxEnergy
		}
	}
	if p.OnSensor(g.Output) {
		tr := s.Link.Cost(wireless.ValueBits)
		e.SensorTx += tr.TxEnergy
		e.AggRx += tr.RxEnergy
	}
	return e
}

// Delay is the per-event delay breakdown of Fig. 10.
type Delay struct {
	// FrontEnd is the critical path through the in-sensor cells
	// (asynchronous hardware units run concurrently once data-ready).
	FrontEnd float64
	// Wireless is the serialized air time of everything crossing the
	// link for one event.
	Wireless float64
	// BackEnd is the sequential software time on the aggregator CPU.
	BackEnd float64
}

// Total is the end-to-end per-event delay.
func (d Delay) Total() float64 { return d.FrontEnd + d.Wireless + d.BackEnd }

// DelayPerEvent returns the delay breakdown of the system's placement,
// compiled when the system was built.
func (s *System) DelayPerEvent() Delay { return s.plan.delay }

// DelayOf computes the delay breakdown for an arbitrary placement — the
// delay model handed to the Automatic XPro Generator. It reads only the
// placement-independent half of the plan and prices from the receiver's
// current Link, CPU and HW, so a System copy with a swapped Link (the
// adaptive controller's derated re-pricing) prices on that link.
func (s *System) DelayOf(p partition.Placement) Delay {
	return s.delayOf(s.plan.graphPlan, p)
}

func (s *System) delayOf(gp *graphPlan, p partition.Placement) Delay {
	g := s.Graph
	var d Delay

	// Front end: longest path over in-sensor cells (intra-end
	// communication is free, §2.2).
	finish := make([]float64, len(g.Cells))
	for _, id := range gp.order {
		if !p.OnSensor(id) {
			continue
		}
		start := 0.0
		for _, e := range gp.inEdges(id) {
			if e.From == topology.SourceID || !p.OnSensor(e.From) {
				continue
			}
			if finish[e.From] > start {
				start = finish[e.From]
			}
		}
		finish[id] = start + s.HW.Delay(id)
		if finish[id] > d.FrontEnd {
			d.FrontEnd = finish[id]
		}
	}

	// Wireless: all crossing payloads, serialized on the link.
	rawSent := false
	for _, id := range gp.readers {
		if !p.OnSensor(id) {
			rawSent = true
			break
		}
	}
	if rawSent {
		d.Wireless += s.Link.Cost(g.SourceBits).Delay
	}
	for i := range gp.groups {
		tg := &gp.groups[i]
		fromS := p.OnSensor(tg.From)
		for _, c := range tg.Consumers {
			if p.OnSensor(c) != fromS {
				d.Wireless += s.Link.Cost(tg.Bits).Delay
				break
			}
		}
	}
	if p.OnSensor(g.Output) {
		d.Wireless += s.Link.Cost(wireless.ValueBits).Delay
	}

	// Back end: sequential software execution.
	for _, id := range p.AggregatorCells() {
		d.BackEnd += s.CPU.CellCost(g.Cells[id].Spec).Delay
	}
	return d
}

// MaxSustainableEventRate returns the highest steady-state event rate
// the placed system can pipeline, in events/s. With events overlapping,
// each resource is busy once per event: every asynchronous sensor cell
// (initiation interval = its own latency), the half-duplex link (total
// crossing air time), and the aggregator CPU (total back-end time). The
// slowest of these bounds the throughput.
func (s *System) MaxSustainableEventRate() float64 {
	var bottleneck float64
	for _, id := range s.Placement.SensorCells() {
		if d := s.HW.Delay(id); d > bottleneck {
			bottleneck = d
		}
	}
	d := s.DelayPerEvent()
	if d.Wireless > bottleneck {
		bottleneck = d.Wireless
	}
	if d.BackEnd > bottleneck {
		bottleneck = d.BackEnd
	}
	if bottleneck == 0 {
		return math.Inf(1)
	}
	return 1 / bottleneck
}

// SensorAvgPower returns the sensor node's average power draw at the
// configured event rate.
func (s *System) SensorAvgPower() float64 {
	return s.EnergyPerEvent().SensorTotal() * s.EventsPerSecond()
}

// SensorLifetimeHours estimates the 40 mAh sensor battery's lifetime.
func (s *System) SensorLifetimeHours() (float64, error) {
	return sensorLifetime(s.SensorAvgPower())
}

func sensorLifetime(avgPowerW float64) (float64, error) {
	return battery.SensorBattery().LifetimeHours(avgPowerW)
}

// AggregatorAvgPower returns the aggregator's analytic power draw
// (events + idle share).
func (s *System) AggregatorAvgPower() float64 {
	return s.EnergyPerEvent().AggregatorTotal()*s.EventsPerSecond() + s.CPU.IdlePower
}

// AggregatorLifetimeHours estimates the 2900 mAh aggregator battery's
// lifetime under the analytic load (§5.6).
func (s *System) AggregatorLifetimeHours() (float64, error) {
	return battery.AggregatorBattery().LifetimeHours(s.AggregatorAvgPower())
}

// value is one cell's computed output, on whichever end produced it.
type value struct {
	fx []fixed.Num // sensor-side representation
	fl []float64   // aggregator-side representation
}

func (v value) asFixed() []fixed.Num {
	if v.fx != nil {
		return v.fx
	}
	return fixed.FromSlice(v.fl)
}

func (v value) asFloat() []float64 {
	if v.fl != nil {
		return v.fl
	}
	return fixed.ToSlice(v.fx)
}

// len returns how many values v holds; at returns value i in float64.
func (v value) len() int {
	if v.fl != nil {
		return len(v.fl)
	}
	return len(v.fx)
}

func (v value) at(i int) float64 {
	if v.fl != nil {
		return v.fl[i]
	}
	return v.fx[i].Float()
}

// Classify executes the partitioned pipeline on one segment and returns
// the predicted label (0 or 1). Sensor-side cells compute in Q16.16,
// aggregator-side cells in float64; values crossing the link are
// converted, exactly as the fixed-point payloads would be decoded. It
// runs the one event walk (tieredwalk.go) over the placement's 1-hop
// chain with an infallible hop.
//
// Each call increments the registry's xpro_classify_* series, and when
// a tracer is wired it records one span per executed cell plus a
// whole-event "classify" span carrying the placement's compiled books.
func (s *System) Classify(seg biosig.Segment) (int, error) {
	start := time.Now()
	spans := spanSink{tr: s.tracer()}
	if spans.tr != nil {
		spans.event = spans.tr.NextEvent()
	}
	a := s.plan.take()
	defer s.plan.put(a)
	hops := [1]hop{{Hop: partition.Hop{Link: s.Link}}}
	out, err := s.walk(a, seg, s.plan.chain, hops[:], TieredOptions{}, spans, nil)
	m := s.metrics()
	if err != nil {
		m.Counter("xpro_classify_errors_total",
			"Classify calls that returned an error.").Inc()
		return 0, err
	}
	if spans.tr != nil {
		// The event span reports the compiled books, not the walk's
		// ledger: the walk sums the same costs in another order, so its
		// figures can differ in the last ulp.
		spans.tr.Add(telemetry.Span{
			Event: spans.event, Name: "classify", End: "event",
			Start: start, Wall: time.Since(start),
			EnergyJoules: s.plan.energy.SensorTotal(),
			DelaySeconds: s.plan.delay.Total(),
		})
	}
	m.Counter("xpro_classify_total",
		"Segments classified through the partitioned pipeline.").Inc()
	m.Histogram("xpro_classify_seconds",
		"Wall time of one Classify call.", telemetry.DurationBuckets).
		Observe(time.Since(start).Seconds())
	m.Quantile("xpro_classify_wall_seconds",
		"Wall time of one Classify call (windowed quantile sketch on host uptime).",
		0).ObserveWall(time.Since(start).Seconds())
	m.Counter(cellsExecutedSensor, "Functional-cell activations by end.").Add(float64(s.plan.sensorCells))
	m.Counter(cellsExecutedAggregator, "Functional-cell activations by end.").Add(float64(s.plan.aggCells))
	return out.Label, nil
}

var (
	cellsExecutedSensor     = telemetry.WithLabels("xpro_cells_executed_total", map[string]string{"end": "sensor"})
	cellsExecutedAggregator = telemetry.WithLabels("xpro_cells_executed_total", map[string]string{"end": "aggregator"})
)

// event carries one segment's source data in both representations.
type event struct {
	rawFloat    []float64
	paddedFloat []float64
	rawFixed    []fixed.Num
	paddedFixed []fixed.Num
}

// makeEvent allocates an event's buffers for segments of segLen samples.
func makeEvent(segLen int) event {
	return event{
		paddedFloat: make([]float64, ensemble.DWTInputLen),
		rawFixed:    make([]fixed.Num, segLen),
		paddedFixed: make([]fixed.Num, ensemble.DWTInputLen),
	}
}

// load fills ev from samples, which it keeps as rawFloat: the copy
// padded to the DWT input length, and both Q16.16 images.
func (ev *event) load(samples []float64) {
	ev.rawFloat = samples
	biosig.Segment{Samples: samples}.PadInto(ev.paddedFloat)
	for i, f := range samples {
		ev.rawFixed[i] = fixed.FromFloat(f)
	}
	for i, f := range ev.paddedFloat {
		ev.paddedFixed[i] = fixed.FromFloat(f)
	}
}

// dwtSlice selects what a consumer takes from a DWT producer's output
// (detail‖approx): feature cells of band l take the detail half; the
// next DWT level and approximation-band features take the approx half.
func dwtSlice[T any](producer topology.Cell, wantApprox bool, out []T) []T {
	half := producer.OutValues
	if wantApprox {
		return out[half:]
	}
	return out[:half]
}

// evalCell executes one functional cell on one event into out, its
// output slot. fetch returns the producer value of the i-th in-edge;
// the cell computes in Q16.16 (out.fx) when placed on the sensor,
// float64 (out.fl) on the aggregator. Vectors come from a's scratch.
// The walk fuses through fusePartial, never here.
func (s *System) evalCell(c topology.Cell, ins []topology.Edge, fetch func(int) value, ev *event, a *arena, out value) error {
	if s.Placement.OnSensor(c.ID) {
		return s.evalFixed(c, ins, fetch, ev, a, out.fx)
	}
	return s.evalFloat(c, ins, fetch, ev, a, out.fl)
}

// scalarFixed reads element 0 of v, the producer value on in-edge e,
// as sensor-side cell c consumes it: verbatim from its own end, and
// quantized off the wire, that one value only, when it crossed the
// link. SVM, fusion and Std-stage inputs are such scalar reads.
func (s *System) scalarFixed(c topology.CellID, e topology.Edge, v value) fixed.Num {
	if s.Placement.OnSensor(e.From) == s.Placement.OnSensor(c) {
		return v.asFixed()[0]
	}
	return fixed.FromFloat(crossScalar(v, e))
}

// scalarFloat is scalarFixed for an aggregator-side cell, in float64.
func (s *System) scalarFloat(c topology.CellID, e topology.Edge, v value) float64 {
	if s.Placement.OnSensor(e.From) == s.Placement.OnSensor(c) {
		return v.asFloat()[0]
	}
	return crossScalar(v, e)
}

func (s *System) evalFixed(c topology.Cell, ins []topology.Edge, fetch func(int) value, ev *event, a *arena, out []fixed.Num) error {
	gather := func(i int, wantApprox bool) []fixed.Num {
		e := ins[i]
		if e.From == topology.SourceID {
			return nil // handled by caller context
		}
		from := s.Graph.Cells[e.From]
		var v []fixed.Num
		if s.Placement.OnSensor(e.From) == s.Placement.OnSensor(c.ID) {
			v = fetch(i).asFixed()
		} else {
			// The payload crossed the link: apply wire quantization.
			v = crossFixed(a.qfx, fetch(i), e)
		}
		if from.Role == topology.RoleDWT {
			return dwtSlice(from, wantApprox, v)
		}
		return v
	}
	switch c.Role {
	case topology.RoleDWT:
		in := ev.paddedFixed
		if c.Level != 1 {
			in = gather(0, true)
		}
		return dwt.StepFixedInto(out[c.OutValues:], out[:c.OutValues], in) // detail ‖ approx
	case topology.RoleFeature:
		in := ev.rawFixed
		if c.Feature.Domain != ensemble.TimeDomain {
			in = gather(0, c.Feature.Domain == ensemble.DWTLevels+1)
		}
		v := stats.ComputeFixed(c.Feature.Feat, in)
		// Feature cells emit the §4.4 [0,1]-normalized value.
		out[0] = normFixed(v, s.Ens.FeatureRange(c.Feature))
	case topology.RoleStdStage:
		// The Var cell emits a normalized variance; undo that, take the
		// square root, and apply the Std feature's own normalization.
		varRange := s.Ens.FeatureRange(ensemble.FeatureSpec{Domain: c.Feature.Domain, Feat: stats.Var})
		raw := fixed.FromFloat(varRange.Invert(s.scalarFixed(c.ID, ins[0], fetch(0)).Float()))
		out[0] = normFixed(fixed.Sqrt(raw), s.Ens.FeatureRange(c.Feature))
	case topology.RoleSVM:
		x := a.xfx[:len(ins)]
		for i, e := range ins {
			x[i] = s.scalarFixed(c.ID, e, fetch(i))
		}
		out[0] = s.Ens.Bases[c.Base].Model.DecisionFixed(x)
	default:
		return fmt.Errorf("unknown role %v", c.Role)
	}
	return nil
}

func (s *System) evalFloat(c topology.Cell, ins []topology.Edge, fetch func(int) value, ev *event, a *arena, out []float64) error {
	gather := func(i int, wantApprox bool) []float64 {
		e := ins[i]
		if e.From == topology.SourceID {
			return nil
		}
		from := s.Graph.Cells[e.From]
		var v []float64
		if s.Placement.OnSensor(e.From) == s.Placement.OnSensor(c.ID) {
			v = fetch(i).asFloat()
		} else {
			// The payload crossed the link: apply wire quantization.
			v = crossFloat(a.qfl, fetch(i), e)
		}
		if from.Role == topology.RoleDWT {
			return dwtSlice(from, wantApprox, v)
		}
		return v
	}
	switch c.Role {
	case topology.RoleDWT:
		in := ev.paddedFloat
		if c.Level != 1 {
			in = gather(0, true)
		}
		return dwt.StepInto(dwt.Haar, out[c.OutValues:], out[:c.OutValues], in)
	case topology.RoleFeature:
		in := ev.rawFloat
		if c.Feature.Domain != ensemble.TimeDomain {
			in = gather(0, c.Feature.Domain == ensemble.DWTLevels+1)
		}
		// Feature cells emit the §4.4 [0,1]-normalized value.
		out[0] = s.Ens.FeatureRange(c.Feature).Apply(stats.Compute(c.Feature.Feat, in))
	case topology.RoleStdStage:
		// The Var cell emits a normalized variance; undo that, take the
		// square root, and apply the Std feature's own normalization.
		varRange := s.Ens.FeatureRange(ensemble.FeatureSpec{Domain: c.Feature.Domain, Feat: stats.Var})
		rawVar := varRange.Invert(s.scalarFloat(c.ID, ins[0], fetch(0)))
		if rawVar < 0 {
			rawVar = 0
		}
		out[0] = s.Ens.FeatureRange(c.Feature).Apply(math.Sqrt(rawVar))
	case topology.RoleSVM:
		x := a.xfl[:len(ins)]
		for i, e := range ins {
			x[i] = s.scalarFloat(c.ID, e, fetch(i))
		}
		out[0] = s.Ens.Bases[c.Base].Model.Decision(x)
	default:
		return fmt.Errorf("unknown role %v", c.Role)
	}
	return nil
}

// Accuracy classifies every segment of d through the cross-end pipeline.
func (s *System) Accuracy(d *biosig.Dataset) (float64, error) {
	if len(d.Segs) == 0 {
		return 0, errors.New("xsystem: empty dataset")
	}
	correct := 0
	for _, seg := range d.Segs {
		got, err := s.Classify(seg)
		if err != nil {
			return 0, err
		}
		if got == seg.Label {
			correct++
		}
	}
	return float64(correct) / float64(len(d.Segs)), nil
}
