// Package aggregator models the back-end of the XPro system: the
// in-aggregator analytic part running as software on a smartphone-class
// CPU.
//
// The paper simulates an ARM Cortex-A8 with gem5 and collects its power
// with McPAT, running the back-end functional cells as a C++ library
// (§5.6). Those simulators are out of scope here; this package
// substitutes a per-operation execution model in the Cortex-A8 class:
// an effective throughput (instructions retire slower than peak because
// the cells walk buffers and the OS intervenes between events) and a
// per-operation energy from McPAT-class numbers. Figure 13 depends only
// on the *ratio* of aggregator energies between engine types, which a
// per-op model preserves exactly.
//
// Unlike the sensor's asynchronous cell array — every cell is its own
// hardware — the aggregator executes cells sequentially on one core, so
// back-end latency is the sum of cell latencies, not a critical path.
package aggregator

import (
	"fmt"

	"xpro/internal/celllib"
)

// CPU is the aggregator execution model.
type CPU struct {
	// OpsPerSecond is the effective software throughput for the cells'
	// operation mix.
	OpsPerSecond float64
	// EnergyPerOp is the average core+memory energy per operation.
	EnergyPerOp float64
	// IdlePower is drawn while the analytic engine has no work; the
	// cross-end engine "allows the aggregator to enter into low-power
	// states when the data are being processed in the sensor node"
	// (§5.6).
	IdlePower float64
}

// CortexA8 returns the evaluation CPU model (§5.6): an ARM Cortex-A8
// running the back-end cells from a C++ library.
func CortexA8() CPU {
	return CPU{
		OpsPerSecond: 100e6,   // effective, with buffer walks + OS overhead
		EnergyPerOp:  0.45e-9, // McPAT-class core+L1 energy per op
		IdlePower:    8e-3,    // analytic-engine share of platform idle
	}
}

// Cost is the software execution cost of a set of cells for one event.
type Cost struct {
	Ops    int64
	Energy float64
	Delay  float64
}

// CellCost returns the cost of executing one cell in software.
func (c CPU) CellCost(spec celllib.Spec) Cost {
	ops := spec.SoftwareOps()
	return Cost{
		Ops:    ops,
		Energy: float64(ops) * c.EnergyPerOp,
		Delay:  float64(ops) / c.OpsPerSecond,
	}
}

// Validate rejects non-physical CPU models.
func (c CPU) Validate() error {
	if c.OpsPerSecond <= 0 || c.EnergyPerOp <= 0 || c.IdlePower < 0 {
		return fmt.Errorf("aggregator: invalid CPU model %+v", c)
	}
	return nil
}
