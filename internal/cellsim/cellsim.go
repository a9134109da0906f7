// Package cellsim is a cycle-stepped simulation of the in-sensor cell
// array: the asynchronous micro-unit of Fig. 3 executed at clock-cycle
// granularity.
//
// Each in-sensor functional cell steps through the states of the paper's
// circuit: power-gated Idle (input channel passively waits, everything
// else off), a short Wake transition when every data-ready input is
// asserted, Working for its characterized cycle count, then Done with
// the output-ready flag raised toward its consumers.
//
// The simulator serves two purposes:
//
//   - It validates internal/xsystem's analytical front-end model: the
//     cycle at which the last cell finishes must equal the critical
//     path computed by DelayOf, and per-cell energy must equal the
//     celllib characterization exactly.
//
//   - It quantifies power gating (design rule 1): UngatedEnergy is what
//     the same schedule would cost if idle cells leaked their static
//     power for the whole event — the overhead the asynchronous
//     power-gated design eliminates.
package cellsim

import (
	"fmt"
	"sort"

	"xpro/internal/partition"
	"xpro/internal/sensornode"
	"xpro/internal/topology"
)

// State is a cell's simulation state.
type State int

const (
	// Idle: power-gated, waiting for inputs (Fig. 3 "idle").
	Idle State = iota
	// Working: private clock running, S-ALU executing.
	Working
	// Done: output buffer valid, back to gated.
	Done
)

func (s State) String() string {
	switch s {
	case Idle:
		return "idle"
	case Working:
		return "working"
	default:
		return "done"
	}
}

// CellStats is the simulated timeline of one cell.
type CellStats struct {
	ID topology.CellID
	// StartCycle is when every input was ready and the cell woke.
	StartCycle int64
	// DoneCycle is when the output-ready flag rose.
	DoneCycle int64
	// Energy is the cell's event energy (dynamic + active static).
	Energy float64
}

// Result is the outcome of simulating one event through the in-sensor
// array.
type Result struct {
	// CompletionCycle is when the last in-sensor cell finished.
	CompletionCycle int64
	// Cells holds per-cell timelines, indexed by position in the
	// simulated (in-sensor) order.
	Cells []CellStats
	// GatedEnergy is the total with power gating: cells draw only while
	// Working (this equals the sum of the celllib characterizations).
	GatedEnergy float64
	// UngatedEnergy adds the static power idle cells would leak from
	// cycle 0 until the array completes if they were never gated off.
	UngatedEnergy float64
}

// GatingSavings is the fraction of ungated energy that power gating
// eliminates.
func (r *Result) GatingSavings() float64 {
	if r.UngatedEnergy == 0 {
		return 0
	}
	return 1 - r.GatedEnergy/r.UngatedEnergy
}

// Simulate steps the in-sensor subarray of (g, p) cycle by cycle for one
// event. Inputs from the source or from aggregator-placed producers are
// treated as available at cycle 0 (matching the front-end component of
// the Fig. 10 decomposition).
func Simulate(g *topology.Graph, p partition.Placement, hw *sensornode.Hardware) (*Result, error) {
	if len(p) != len(g.Cells) {
		return nil, fmt.Errorf("cellsim: placement covers %d cells, graph has %d", len(p), len(g.Cells))
	}
	if _, err := g.TopoOrder(); err != nil {
		return nil, err
	}

	type cell struct {
		id     topology.CellID
		state  State
		start  int64
		done   int64
		cycles int64
		inputs []topology.CellID // in-sensor producers to wait for
	}
	var cells []*cell
	index := make(map[topology.CellID]*cell)
	for i := range g.Cells {
		id := topology.CellID(i)
		if !p.OnSensor(id) {
			continue
		}
		c := &cell{id: id, state: Idle, cycles: hw.Profiles[id].Cycles}
		for _, e := range g.InEdges(id) {
			if e.From != topology.SourceID && p.OnSensor(e.From) {
				c.inputs = append(c.inputs, e.From)
			}
		}
		cells = append(cells, c)
		index[id] = c
	}
	if len(cells) == 0 {
		return &Result{}, nil
	}

	ready := func(c *cell, now int64) bool {
		for _, dep := range c.inputs {
			d := index[dep]
			if d.state != Done || d.done > now {
				return false
			}
		}
		return true
	}

	var now int64
	remaining := len(cells)
	for remaining > 0 {
		progressed := false
		for _, c := range cells {
			switch c.state {
			case Idle:
				if ready(c, now) {
					c.state = Working
					c.start = now
					progressed = true
				}
			case Working:
				if now-c.start >= c.cycles {
					c.state = Done
					c.done = now
					remaining--
					progressed = true
				}
			}
		}
		if remaining == 0 {
			break
		}
		if !progressed {
			// Advance time to the next completion instead of stepping
			// every cycle (the schedule only changes at completions).
			next := int64(-1)
			for _, c := range cells {
				if c.state == Working {
					if end := c.start + c.cycles; next < 0 || end < next {
						next = end
					}
				}
			}
			if next < 0 {
				return nil, fmt.Errorf("cellsim: deadlock at cycle %d with %d cells pending", now, remaining)
			}
			now = next
		}
	}

	res := &Result{}
	for _, c := range cells {
		if c.done > res.CompletionCycle {
			res.CompletionCycle = c.done
		}
	}
	for _, c := range cells {
		prof := hw.Profiles[c.id]
		res.Cells = append(res.Cells, CellStats{ID: c.id, StartCycle: c.start, DoneCycle: c.done, Energy: prof.Energy()})
		res.GatedEnergy += prof.Energy()
		// Ungated: the cell's static share would burn for the whole
		// event, not just its working window.
		if prof.Cycles > 0 {
			staticPerCycle := prof.StaticEnergy / float64(prof.Cycles)
			idleCycles := res.CompletionCycle - prof.Cycles
			if idleCycles > 0 {
				res.UngatedEnergy += staticPerCycle * float64(idleCycles)
			}
		}
	}
	res.UngatedEnergy += res.GatedEnergy
	return res, nil
}

// PeakPower returns the maximum instantaneous power of the array during
// the event: at any cycle, the sum of the average active power of every
// cell whose working window covers it. Battery and regulator sizing care
// about this peak, not just the per-event energy.
func PeakPower(r *Result, hw *sensornode.Hardware) float64 {
	type edge struct {
		at    int64
		delta float64
	}
	var edges []edge
	for _, cs := range r.Cells {
		p := hw.Profiles[cs.ID].Power()
		edges = append(edges, edge{at: cs.StartCycle, delta: p}, edge{at: cs.DoneCycle, delta: -p})
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].at != edges[j].at {
			return edges[i].at < edges[j].at
		}
		// Close windows before opening new ones at the same cycle.
		return edges[i].delta < edges[j].delta
	})
	var cur, peak float64
	for _, e := range edges {
		cur += e.delta
		if cur > peak {
			peak = cur
		}
	}
	return peak
}
