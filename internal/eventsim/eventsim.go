// Package eventsim is a discrete-event simulator of one classification
// event flowing through a placed XPro system. It complements the
// analytical delay model of internal/xsystem (front-end critical path +
// serialized wireless + serialized back-end, the Fig. 10 decomposition)
// with an execution-ordered schedule that models resource contention
// explicitly:
//
//   - every in-sensor cell is its own asynchronous hardware unit
//     (design rule 1) and fires the moment its inputs are available;
//   - the wireless link is a single half-duplex channel; crossing
//     payloads queue FIFO by readiness;
//   - the aggregator is one CPU; back-end cells queue FIFO by readiness.
//
// Because phases overlap (a transfer can fly while later sensor cells
// still compute), the simulated finish time is a lower, more faithful
// estimate than the additive model — and never exceeds it. The produced
// Trace is a per-activity timeline suitable for inspection tools.
package eventsim

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"xpro/internal/faults"
	"xpro/internal/partition"
	"xpro/internal/telemetry"
	"xpro/internal/topology"
	"xpro/internal/wireless"
)

// Kind classifies a trace activity.
type Kind int

const (
	// KindCell is a functional-cell activation.
	KindCell Kind = iota
	// KindTransfer is a wireless payload crossing the link.
	KindTransfer
	// KindStall is time a resource spent blocked by a fault window
	// (link outage, sensor brownout, aggregator stall).
	KindStall
)

func (k Kind) String() string {
	switch k {
	case KindCell:
		return "cell"
	case KindTransfer:
		return "transfer"
	default:
		return "stall"
	}
}

// Activity is one scheduled piece of work.
type Activity struct {
	Kind  Kind
	Name  string
	Where string // "sensor", "aggregator" or "link"
	Start float64
	End   float64
}

// Trace is the schedule of one event.
type Trace struct {
	Activities []Activity
	// Finish is when the classification result is available at the
	// aggregator.
	Finish float64
}

// Input bundles what the simulator needs; it is deliberately independent
// of internal/xsystem so either side can evolve.
type Input struct {
	Graph     *topology.Graph
	Placement partition.Placement
	// SensorDelay and AggDelay return a cell's activation latency on
	// its end.
	SensorDelay func(topology.CellID) float64
	AggDelay    func(topology.CellID) float64
	Link        wireless.Model
	// Channel, when set, replaces Link's clean air time with the lossy
	// channel's sampled (re)transmission schedule: each crossing payload
	// takes as long as its sampled attempts. Payloads that exhaust their
	// retries are counted as drops and assumed recovered by the upper
	// layer at the cost already accounted.
	Channel *wireless.Channel
	// Faults, when set, subjects the schedule to the plan's windows:
	// transfers cannot start during a link outage, sensor cells cannot
	// start during a brownout, aggregator cells cannot start during an
	// aggregator stall (each blocked start appears as a KindStall
	// activity), and loss bursts inflate transfer air time by sampled
	// retransmissions seeded from FaultSeed.
	Faults *faults.Plan
	// FaultSeed seeds the loss-burst retransmission sampling.
	FaultSeed int64
	// Start offsets the event on the fault plan's timeline: the event
	// begins at this modeled time, and all trace activities (and
	// Finish) are reported relative to the event start.
	Start float64
	// SensorEnergyPerEvent, when positive, is the modeled per-event
	// sensor energy added to the battery-drain counter per simulated
	// event.
	SensorEnergyPerEvent float64
	// Metrics receives the simulator's runtime counters; nil falls back
	// to telemetry.Default().
	Metrics *telemetry.Registry
}

func (in Input) metrics() *telemetry.Registry {
	if in.Metrics != nil {
		return in.Metrics
	}
	return telemetry.Default()
}

// transfer is one queued link payload.
type transfer struct {
	name string
	// producer is the cell whose output crosses (-1 = raw segment).
	producer topology.CellID
	bits     int64
	// consumers that receive this payload on the other end.
	consumers []topology.CellID
	readyAt   float64
	started   bool
	arriveAt  float64
}

// Simulate schedules one event and returns its trace.
func Simulate(in Input) (*Trace, error) {
	g := in.Graph
	if len(in.Placement) != len(g.Cells) {
		return nil, fmt.Errorf("eventsim: placement covers %d cells, graph has %d", len(in.Placement), len(g.Cells))
	}
	if in.SensorDelay == nil || in.AggDelay == nil {
		return nil, fmt.Errorf("eventsim: nil delay model")
	}
	order, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}
	p := in.Placement

	const unscheduled = math.MaxFloat64
	finish := make([]float64, len(g.Cells))
	for i := range finish {
		finish[i] = unscheduled
	}

	// Build the transfer jobs: raw segment (if the source group is on
	// the aggregator), one per crossing transfer group, and the result.
	var transfers []*transfer
	rawSent := false
	for _, id := range g.SourceReaders() {
		if !p.OnSensor(id) {
			rawSent = true
			break
		}
	}
	// arrival[cell] = when cross-end inputs for that consumer arrive.
	arrival := make(map[topology.CellID][]*transfer)
	if rawSent {
		tr := &transfer{name: "raw", producer: topology.SourceID, bits: g.SourceBits, readyAt: 0}
		for _, id := range g.SourceReaders() {
			if !p.OnSensor(id) {
				tr.consumers = append(tr.consumers, id)
				arrival[id] = append(arrival[id], tr)
			}
		}
		transfers = append(transfers, tr)
	}
	for _, tg := range g.TransferGroups() {
		fromS := p.OnSensor(tg.From)
		var cross []topology.CellID
		for _, c := range tg.Consumers {
			if p.OnSensor(c) != fromS {
				cross = append(cross, c)
			}
		}
		if len(cross) == 0 {
			continue
		}
		tr := &transfer{
			name:      fmt.Sprintf("%s.%s", g.Cells[tg.From].Name, tg.Class),
			producer:  tg.From,
			bits:      tg.Bits,
			consumers: cross,
			readyAt:   unscheduled,
		}
		for _, c := range cross {
			arrival[c] = append(arrival[c], tr)
		}
		transfers = append(transfers, tr)
	}
	var resultTr *transfer
	if p.OnSensor(g.Output) {
		resultTr = &transfer{name: "result", producer: g.Output, bits: wireless.ValueBits, readyAt: unscheduled}
		transfers = append(transfers, resultTr)
	}

	trace := &Trace{}
	linkFree, cpuFree := 0.0, 0.0
	retransmissions, drops := 0, 0
	stalls := 0
	var stallTime float64

	// Fault-window helpers: times inside the schedule are relative to
	// the event start; the plan's windows are absolute. deferPast moves
	// a start time past any blocking window of kind k, recording the
	// wait as a KindStall activity.
	var faultRNG *rand.Rand
	if in.Faults != nil {
		faultRNG = rand.New(rand.NewSource(in.FaultSeed))
	}
	blockedBy := func(st faults.State, k faults.Kind) bool {
		switch k {
		case faults.LinkOutage:
			return st.LinkDown
		case faults.Brownout:
			return st.Brownout
		case faults.AggStall:
			return st.AggStall
		}
		return false
	}
	deferPast := func(t float64, k faults.Kind, where string) float64 {
		if in.Faults == nil {
			return t
		}
		abs := in.Start + t
		if !blockedBy(in.Faults.At(abs), k) {
			return t
		}
		until := in.Faults.Until(abs, k) - in.Start
		trace.Activities = append(trace.Activities, Activity{
			Kind: KindStall, Name: k.String(), Where: where, Start: t, End: until,
		})
		stalls++
		stallTime += until - t
		return until
	}
	// burstFactor samples per-payload retransmission inflation inside a
	// loss-burst window (capped at 8 attempts), seeded by FaultSeed.
	burstFactor := func(t float64) float64 {
		if in.Faults == nil {
			return 1
		}
		loss := in.Faults.At(in.Start + t).Loss
		if loss <= 0 {
			return 1
		}
		attempts := 1
		for attempts < 8 && faultRNG.Float64() < loss {
			attempts++
		}
		if attempts > 1 {
			retransmissions += attempts - 1
		}
		return float64(attempts)
	}

	// inputsReady returns when all of a cell's inputs are available on
	// its end, or unscheduled if some dependency is not yet done.
	inputsReady := func(id topology.CellID) float64 {
		ready := 0.0
		for _, e := range g.InEdges(id) {
			if e.From == topology.SourceID {
				if !p.OnSensor(id) {
					// Raw data must have arrived via the raw transfer.
					ok := false
					for _, tr := range arrival[id] {
						if tr.producer == topology.SourceID {
							if !tr.started {
								return unscheduled
							}
							ready = math.Max(ready, tr.arriveAt)
							ok = true
						}
					}
					if !ok {
						return unscheduled
					}
				}
				continue
			}
			if p.OnSensor(e.From) == p.OnSensor(id) {
				if finish[e.From] == unscheduled {
					return unscheduled
				}
				ready = math.Max(ready, finish[e.From])
				continue
			}
			// Cross-end input: find its transfer.
			found := false
			for _, tr := range arrival[id] {
				if tr.producer == e.From {
					if !tr.started {
						return unscheduled
					}
					ready = math.Max(ready, tr.arriveAt)
					found = true
					break
				}
			}
			if !found {
				return unscheduled
			}
		}
		return ready
	}

	remainingCells := len(g.Cells)
	remainingTransfers := len(transfers)
	for remainingCells > 0 || remainingTransfers > 0 {
		progressed := false

		// Sensor cells: dedicated hardware, schedule every ready cell.
		for _, id := range order {
			if finish[id] != unscheduled || !p.OnSensor(id) {
				continue
			}
			r := inputsReady(id)
			if r == unscheduled {
				continue
			}
			r = deferPast(r, faults.Brownout, "sensor")
			d := in.SensorDelay(id)
			finish[id] = r + d
			trace.Activities = append(trace.Activities, Activity{
				Kind: KindCell, Name: g.Cells[id].Name, Where: "sensor", Start: r, End: finish[id],
			})
			remainingCells--
			progressed = true
		}

		// Refresh transfer readiness from producer finishes.
		for _, tr := range transfers {
			if tr.started || tr.producer == topology.SourceID {
				continue
			}
			if f := finish[tr.producer]; f != unscheduled {
				tr.readyAt = f
			}
		}
		// Link: single channel, FIFO by readiness (stable on name).
		var next *transfer
		for _, tr := range transfers {
			if tr.started || tr.readyAt == unscheduled {
				continue
			}
			if next == nil || tr.readyAt < next.readyAt || (tr.readyAt == next.readyAt && tr.name < next.name) {
				next = tr
			}
		}
		if next != nil {
			start := math.Max(next.readyAt, linkFree)
			start = deferPast(start, faults.LinkOutage, "link")
			dur := in.Link.Cost(next.bits).Delay
			if in.Channel != nil {
				tr, retrans, err := in.Channel.SendStats(next.bits)
				dur = tr.Delay
				if retrans > 0 {
					retransmissions += retrans
				}
				if err != nil {
					drops++
				}
			}
			dur *= burstFactor(start)
			next.started = true
			next.arriveAt = start + dur
			linkFree = next.arriveAt
			trace.Activities = append(trace.Activities, Activity{
				Kind: KindTransfer, Name: next.name, Where: "link", Start: start, End: next.arriveAt,
			})
			remainingTransfers--
			progressed = true
		}

		// Aggregator: one CPU, FIFO by readiness; schedule one cell per
		// round so newly arriving work can interleave.
		var aggNext topology.CellID = -1
		aggReady := unscheduled
		for _, id := range order {
			if finish[id] != unscheduled || p.OnSensor(id) {
				continue
			}
			r := inputsReady(id)
			if r == unscheduled {
				continue
			}
			if aggNext == -1 || r < aggReady {
				aggNext, aggReady = id, r
			}
		}
		if aggNext != -1 {
			start := math.Max(aggReady, cpuFree)
			start = deferPast(start, faults.AggStall, "aggregator")
			d := in.AggDelay(aggNext)
			finish[aggNext] = start + d
			cpuFree = finish[aggNext]
			trace.Activities = append(trace.Activities, Activity{
				Kind: KindCell, Name: g.Cells[aggNext].Name, Where: "aggregator", Start: start, End: finish[aggNext],
			})
			remainingCells--
			progressed = true
		}

		if !progressed {
			return nil, fmt.Errorf("eventsim: deadlock with %d cells and %d transfers pending", remainingCells, remainingTransfers)
		}
	}

	trace.Finish = finish[g.Output]
	if resultTr != nil {
		trace.Finish = resultTr.arriveAt
	}

	m := in.metrics()
	m.Counter("xpro_eventsim_events_total",
		"Classification events run through the discrete-event simulator.").Inc()
	m.Counter("xpro_eventsim_activities_total",
		"Scheduled activities (cell activations and link transfers).").
		Add(float64(len(trace.Activities)))
	m.Counter("xpro_eventsim_transfers_total",
		"Wireless payloads scheduled on the link.").Add(float64(len(transfers)))
	if retransmissions > 0 {
		m.Counter("xpro_eventsim_retransmissions_total",
			"Packet retransmissions sampled on the lossy channel.").
			Add(float64(retransmissions))
	}
	if drops > 0 {
		m.Counter("xpro_eventsim_drops_total",
			"Payloads that exhausted their retry budget.").Add(float64(drops))
	}
	if stalls > 0 {
		m.Counter("xpro_eventsim_fault_stalls_total",
			"Activities blocked by a fault window (outage, brownout, stall).").
			Add(float64(stalls))
		m.Counter("xpro_eventsim_fault_stall_seconds_total",
			"Modeled time activities spent blocked by fault windows.").
			Add(stallTime)
	}
	if in.SensorEnergyPerEvent > 0 {
		m.Counter("xpro_eventsim_sensor_energy_joules_total",
			"Accumulated modeled sensor battery drain of simulated events.").
			Add(in.SensorEnergyPerEvent)
	}

	sort.SliceStable(trace.Activities, func(i, j int) bool {
		if trace.Activities[i].Start != trace.Activities[j].Start {
			return trace.Activities[i].Start < trace.Activities[j].Start
		}
		return trace.Activities[i].Name < trace.Activities[j].Name
	})
	return trace, nil
}

// Render formats the trace as an indented timeline (µs).
func (t *Trace) Render() string {
	out := ""
	for _, a := range t.Activities {
		out += fmt.Sprintf("%9.1f–%9.1f µs  %-10s %s\n", a.Start*1e6, a.End*1e6, a.Where, a.Name)
	}
	out += fmt.Sprintf("finish: %.1f µs\n", t.Finish*1e6)
	return out
}
