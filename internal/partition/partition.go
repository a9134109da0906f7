// Package partition implements the Automatic XPro Generator (§3.2): the
// optimizer that distributes functional cells between the wearable
// sensor node and the data aggregator so that sensor-node energy is
// minimal, optionally under an end-to-end delay constraint.
//
// The generator builds the s-t graph of Fig. 7: a source node F (the
// sensor), a sink node B (the aggregator), a dummy node D for the raw
// data segment, and one node per functional cell. Edge capacities are
// energies:
//
//   - F→D: transmitting the whole raw segment to the aggregator;
//   - D→cell (∞): for cells reading raw data, enforcing the "grouped"
//     property of §3.2.2;
//   - cell→B: the cell's in-sensor compute energy (Eq. 2);
//   - u→v / v→u per data dependency: wireless transmit / receive energy
//     of that edge's payload (Eq. 3).
//
// Any F/B cut's capacity equals the sensor's per-event energy under the
// induced placement, so the minimum cut is the energy-optimal placement,
// and the in-sensor and in-aggregator engines — the two extreme cuts —
// can never beat it. The delay-constrained variant (§3.2.3) sweeps a
// Lagrangian relaxation (capacity = energy + λ·delay) and keeps the
// cheapest placement whose simulated delay meets the constraint,
// falling back to the better single-end engine, whose feasibility the
// constraint T_XPro = min(T_F, T_B) guarantees.
package partition

import (
	"fmt"
	"time"

	"xpro/internal/sensornode"
	"xpro/internal/telemetry"
	"xpro/internal/topology"
	"xpro/internal/wireless"
)

// End is one side of the wearable computing system.
type End int

const (
	// Sensor is the front end (the wearable node).
	Sensor End = iota
	// Aggregator is the back end (the smartphone).
	Aggregator
)

func (e End) String() string {
	if e == Sensor {
		return "sensor"
	}
	return "aggregator"
}

// Placement assigns every cell (indexed by topology.CellID) to an end.
type Placement []End

// OnSensor reports whether cell id is placed on the sensor node.
func (p Placement) OnSensor(id topology.CellID) bool { return p[id] == Sensor }

// SensorCells returns the IDs of the in-sensor analytic part.
func (p Placement) SensorCells() []topology.CellID {
	var out []topology.CellID
	for i, e := range p {
		if e == Sensor {
			out = append(out, topology.CellID(i))
		}
	}
	return out
}

// AggregatorCells returns the IDs of the in-aggregator analytic part.
func (p Placement) AggregatorCells() []topology.CellID {
	var out []topology.CellID
	for i, e := range p {
		if e == Aggregator {
			out = append(out, topology.CellID(i))
		}
	}
	return out
}

// Counts returns (#sensor, #aggregator) cells.
func (p Placement) Counts() (sensor, aggregator int) {
	for _, e := range p {
		if e == Sensor {
			sensor++
		} else {
			aggregator++
		}
	}
	return sensor, aggregator
}

// Equal reports whether two placements are identical.
func (p Placement) Equal(q Placement) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if p[i] != q[i] {
			return false
		}
	}
	return true
}

// InSensor returns the all-cells-on-sensor placement (the sensor node
// engine baseline).
func InSensor(g *topology.Graph) Placement {
	return make(Placement, len(g.Cells)) // zero value is Sensor
}

// InAggregator returns the all-cells-on-aggregator placement (the
// aggregator engine baseline).
func InAggregator(g *topology.Graph) Placement {
	p := make(Placement, len(g.Cells))
	for i := range p {
		p[i] = Aggregator
	}
	return p
}

// Trivial returns the intuitive cut of §5.5 (Fig. 12): feature
// extraction (DWT chain + feature cells) on the sensor, classification
// (SVMs + fusion) on the aggregator — "the features are usually a
// compact representation of the data".
func Trivial(g *topology.Graph) Placement {
	p := make(Placement, len(g.Cells))
	for i, c := range g.Cells {
		switch c.Role {
		case topology.RoleSVM, topology.RoleFusion:
			p[i] = Aggregator
		default:
			p[i] = Sensor
		}
	}
	return p
}

// Problem carries everything the generator needs to price a placement.
//
// A problem built by NewProblem carries its graph's View, compiled once
// and shared by its copies, so pricing derives no structure per call. A
// hand-built Problem works too, deriving the view on every call.
type Problem struct {
	Graph *topology.Graph
	HW    *sensornode.Hardware
	Link  wireless.Model
	// SensingEnergy is Es of Eq. 1 (per event).
	SensingEnergy float64
	// AggDelay optionally returns a cell's software latency on the
	// aggregator. The delay-constrained sweep uses it to penalize
	// back-end-heavy cuts (an offloaded cell costs λ·AggDelay on the
	// F→cell edge), widening the candidate pool toward placements that
	// meet tight delay limits. nil disables the term; energy pricing is
	// unaffected either way.
	AggDelay func(topology.CellID) float64
	// Metrics receives the generator's runtime counters; nil falls back
	// to telemetry.Default().
	Metrics *telemetry.Registry

	view *View
}

// NewProblem returns the pricing problem of graph g on hardware hw and
// link, with g's view compiled once. aggDelay may be nil (see AggDelay).
func NewProblem(g *topology.Graph, hw *sensornode.Hardware, link wireless.Model, sensingEnergy float64, aggDelay func(topology.CellID) float64) *Problem {
	return &Problem{
		Graph:         g,
		HW:            hw,
		Link:          link,
		SensingEnergy: sensingEnergy,
		AggDelay:      aggDelay,
		view:          newView(g),
	}
}

// View returns the view of the problem's graph: the compiled one when
// the problem came from NewProblem, a freshly derived one otherwise.
func (pr *Problem) View() *View { return pr.view.of(pr.Graph) }

func (pr *Problem) metrics() *telemetry.Registry {
	if pr.Metrics != nil {
		return pr.Metrics
	}
	return telemetry.Default()
}

// SensorEnergy returns the per-event energy of the sensor node under
// placement p, computed directly from the energy model (Eqs. 1–3):
// in-sensor compute + wireless tx/rx crossing the cut + sensing + the
// final result transmission when fusion sits on the sensor.
func (pr *Problem) SensorEnergy(p Placement) float64 {
	g := pr.Graph
	v := pr.View()
	e := pr.SensingEnergy
	for i, end := range p {
		if end == Sensor {
			e += pr.HW.Energy(topology.CellID(i))
		}
	}
	// Raw segment is transmitted when any source reader is in the
	// aggregator.
	for _, id := range v.Readers {
		if !p.OnSensor(id) {
			e += pr.Link.Cost(g.SourceBits).TxEnergy
			break
		}
	}
	// Each distinct payload crosses the link at most once per direction
	// (broadcast to all consumers on the other end).
	for i := range v.Groups {
		tg := &v.Groups[i]
		fromS := p.OnSensor(tg.From)
		anyOther := false
		for _, c := range tg.Consumers {
			if p.OnSensor(c) != fromS {
				anyOther = true
				break
			}
		}
		if !anyOther {
			continue
		}
		if fromS {
			e += pr.Link.Cost(tg.Bits).TxEnergy
		} else {
			e += pr.Link.Cost(tg.Bits).RxEnergy
		}
	}
	if p.OnSensor(g.Output) {
		e += pr.Link.Cost(wireless.ValueBits).TxEnergy
	}
	return e
}

// GroupedOK reports whether p keeps all source readers on the same end
// (§3.2.2). Placements violating it are legal but provably suboptimal.
func (pr *Problem) GroupedOK(p Placement) bool {
	readers := pr.View().Readers
	if len(readers) == 0 {
		return true
	}
	first := p.OnSensor(readers[0])
	for _, id := range readers[1:] {
		if p.OnSensor(id) != first {
			return false
		}
	}
	return true
}

// MinCut solves the unconstrained problem (§3.2.2) and returns the
// energy-optimal placement and its modeled sensor energy. It builds the
// s-t graph for this one solve; a caller that re-solves keeps a
// CutGraph instead.
func (pr *Problem) MinCut() (Placement, float64) {
	return pr.NewCutGraph().MinCut(pr)
}

// Result reports what the delay-constrained generator produced.
type Result struct {
	Placement Placement
	// Energy is the modeled per-event sensor energy.
	Energy float64
	// Delay is the simulated end-to-end delay returned by the caller's
	// delay model.
	Delay float64
	// Lambda is the Lagrangian weight of the winning cut (0 when the
	// unconstrained cut was already feasible).
	Lambda float64
	// Fallback is true when no swept cut met the constraint and the
	// better single-end engine was returned (§3.2.3: "we can always
	// guarantee the existence of a solution").
	Fallback bool
}

// lambdaLadder is the geometric sweep of Lagrangian weights. The scale
// spans energy(J)/delay(s) ratios from far below to far above the
// µJ-per-ms regime of the evaluated systems.
var lambdaLadder = func() []float64 {
	ls := []float64{0}
	for l := 1e-7; l <= 1e2; l *= 3 {
		ls = append(ls, l)
	}
	return ls
}()

// Generate solves the delay-constrained problem (§3.2.3). delayOf must
// return the simulated end-to-end per-event delay of a placement; limit
// is T_XPro. Generate returns the minimum-energy swept placement with
// delayOf(p) ≤ limit, or the better single-end engine if none qualifies.
func (pr *Problem) Generate(delayOf func(Placement) float64, limit float64) (Result, error) {
	if delayOf == nil {
		return Result{}, fmt.Errorf("partition: nil delay model")
	}
	if limit <= 0 {
		return Result{}, fmt.Errorf("partition: non-positive delay limit %v", limit)
	}
	m := pr.metrics()
	start := time.Now()
	mincutRuns := m.Counter("xpro_generate_mincut_runs_total",
		"Min-cut solves performed by the Automatic XPro Generator.")
	cands := pr.sweep()
	mincutRuns.Add(float64(len(lambdaLadder)))
	// The Lagrangian sweep can jump over the feasibility boundary when
	// many cells share one energy/delay ratio (they all flip at the same
	// λ). Greedy repair fills that gap: walk each infeasible sweep cut
	// toward the limit by pulling back, one at a time, the offloaded
	// cell with the best delay reduction per unit of added energy.
	repairSteps := m.Counter("xpro_generate_repair_steps_total",
		"Greedy-repair placements explored to bridge Lagrangian feasibility gaps.")
	for _, c := range cands[:len(cands):len(cands)] {
		if delayOf(c.p) <= limit {
			continue
		}
		repaired := pr.greedyRepair(c.p, delayOf, limit)
		repairSteps.Add(float64(len(repaired)))
		for _, q := range repaired {
			if !sweptHas(cands, q) {
				cands = append(cands, swept{p: q, lambda: c.lambda})
			}
		}
	}
	m.Counter("xpro_generate_candidates_total",
		"Distinct candidate placements considered by the generator.").
		Add(float64(len(cands)))
	done := func(res Result) Result {
		m.Counter("xpro_generate_total",
			"Delay-constrained generator runs completed.").Inc()
		if res.Fallback {
			m.Counter("xpro_generate_fallback_total",
				"Generator runs that fell back to a single-end engine (§3.2.3).").Inc()
		}
		m.Histogram("xpro_generate_seconds",
			"Wall time of one generator run.", telemetry.DurationBuckets).
			Observe(time.Since(start).Seconds())
		m.Quantile("xpro_generate_wall_seconds",
			"Wall time of one generator run (windowed quantile sketch on host uptime).",
			0).ObserveWall(time.Since(start).Seconds())
		return res
	}

	best := Result{Energy: -1}
	for _, c := range cands {
		d := delayOf(c.p)
		if d > limit {
			continue
		}
		e := pr.SensorEnergy(c.p)
		if best.Energy < 0 || e < best.Energy {
			best = Result{Placement: c.p, Energy: e, Delay: d, Lambda: c.lambda}
		}
	}
	if best.Energy >= 0 {
		return done(best), nil
	}

	// Fallback: the better single-end engine. With limit = min(T_F, T_B)
	// at least one of the two is feasible by construction.
	var fallback Result
	fallback.Fallback = true
	for _, p := range []Placement{InSensor(pr.Graph), InAggregator(pr.Graph)} {
		d := delayOf(p)
		if d > limit*(1+1e-9) {
			continue
		}
		e := pr.SensorEnergy(p)
		if fallback.Placement == nil || e < fallback.Energy {
			fallback = Result{Placement: p, Energy: e, Delay: d, Fallback: true}
		}
	}
	if fallback.Placement == nil {
		return Result{}, fmt.Errorf("partition: delay limit %v infeasible even for single-end engines", limit)
	}
	return done(fallback), nil
}

// greedyRepair returns the trajectory of placements produced by moving
// cells from the aggregator back to the sensor, each step choosing the
// move with the best delay reduction per unit of added sensor energy,
// until the delay limit is met or no move reduces delay. The grouped
// source readers move as one unit.
func (pr *Problem) greedyRepair(start Placement, delayOf func(Placement) float64, limit float64) []Placement {
	g := pr.Graph
	v := pr.View()
	cur := append(Placement(nil), start...)
	curDelay := delayOf(cur)
	curEnergy := pr.SensorEnergy(cur)
	var out []Placement
	for step := 0; step < len(g.Cells) && curDelay > limit; step++ {
		type move struct {
			p      Placement
			delay  float64
			energy float64
		}
		var best *move
		readersTried := false
		for i, end := range cur {
			id := topology.CellID(i)
			if end != Aggregator || (v.reader[id] && readersTried) {
				continue
			}
			q := append(Placement(nil), cur...)
			if v.reader[id] {
				// Move the whole grouped set together.
				for _, r := range v.Readers {
					q[r] = Sensor
				}
				readersTried = true
			} else {
				q[id] = Sensor
			}
			d := delayOf(q)
			if d >= curDelay {
				continue
			}
			e := pr.SensorEnergy(q)
			if best == nil ||
				(e-curEnergy)/(curDelay-d) < (best.energy-curEnergy)/(curDelay-best.delay) {
				best = &move{p: q, delay: d, energy: e}
			}
		}
		if best == nil {
			break
		}
		cur, curDelay, curEnergy = best.p, best.delay, best.energy
		out = append(out, append(Placement(nil), cur...))
	}
	return out
}
