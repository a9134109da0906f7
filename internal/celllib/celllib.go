// Package celllib characterizes XPro's functional cells: energy, delay
// and power per cell kind, ALU mode and process technology.
//
// The paper derives these numbers from Synopsys Design Compiler / VCS
// simulation of Verilog cells under TSMC 130/90/45 nm libraries (§4.3).
// That flow is proprietary, so this package substitutes a first-order
// characterization model built from operation counts and per-operation
// energies, calibrated to reproduce the qualitative structure of
// Figure 4:
//
//   - serial mode is the most energy-efficient for most cells;
//   - Std and DWT are most efficient in pipeline mode (a serial S-ALU
//     computes sqrt by microcode iteration and DWT as a long matrix
//     multiplication — "in both cases the serial mode has an extremely
//     large delay");
//   - parallel DWT costs about two orders of magnitude more than serial
//     ("the monotonic parallel mode needs a large number of multipliers
//     to compute simultaneously").
//
// Design rules represented here (§3.1):
//
//  1. Each functional cell is an independent asynchronous micro-unit
//     with its own S-ALU, buffer and clock, power-gated while idle
//     (Fig. 3). Power gating costs a small per-event wake overhead.
//  2. A monotonic ALU mode per component; BestMode picks the
//     energy-minimal one (the red stars of Fig. 4).
//  3. Resource reuse only at the functional-cell level: the Std cell
//     reuses the Var cell and adds a square-root stage (Fig. 5), which
//     is KindStdStage.
package celllib

import (
	"fmt"
	"math"

	"xpro/internal/stats"
)

// ClockHz is the simulated cell clock (§4.3: "the XPro designs are
// simulated at a 16MHz clock frequency").
const ClockHz = 16e6

// DWTTaps is the filter-bank length of the DWT cell's banded
// matrix-multiplication implementation.
const DWTTaps = 8

// Mode is an S-ALU working mode (§3.1.2).
type Mode int

const (
	Serial Mode = iota
	Parallel
	Pipeline
)

// Modes lists all ALU modes; BestMode prefers the earlier one on a tie.
var Modes = []Mode{Serial, Parallel, Pipeline}

func (m Mode) String() string {
	switch m {
	case Serial:
		return "serial"
	case Parallel:
		return "parallel"
	case Pipeline:
		return "pipeline"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Process is a fabrication technology node (§4.3).
type Process int

const (
	P130 Process = iota
	P90
	P45
)

// Processes lists the three evaluated nodes.
var Processes = []Process{P130, P90, P45}

func (p Process) String() string {
	switch p {
	case P130:
		return "130nm"
	case P90:
		return "90nm"
	case P45:
		return "45nm"
	default:
		return fmt.Sprintf("Process(%d)", int(p))
	}
}

// dynScale returns the dynamic-energy scaling of process p relative to
// 90 nm (first-order CV²f scaling across the three TSMC nodes).
func (p Process) dynScale() float64 {
	switch p {
	case P130:
		return 2.2
	case P45:
		return 0.45
	default:
		return 1.0
	}
}

// staticScale returns the leakage-power scaling relative to 90 nm.
// Leakage shrinks more slowly than dynamic energy at smaller nodes.
func (p Process) staticScale() float64 {
	switch p {
	case P130:
		return 1.8
	case P45:
		return 0.65
	default:
		return 1.0
	}
}

// Kind identifies a functional-cell kind.
type Kind int

const (
	// KindFeature covers the eight statistical feature cells; the
	// concrete feature is carried in Spec.Feat.
	KindFeature Kind = iota
	// KindStdStage is the square-root stage appended to a reused Var
	// cell (design rule 3). A standalone Std cell is KindFeature with
	// Feat = stats.Std.
	KindStdStage
	// KindDWT is one DWT decomposition level, modeled as the paper
	// models it: a matrix multiplication on its input vector.
	KindDWT
	// KindSVM is one base SVM classifier cell (RBF kernel by default).
	KindSVM
	// KindFusion is the score-fusion cell (weighted voting).
	KindFusion
)

func (k Kind) String() string {
	switch k {
	case KindFeature:
		return "feature"
	case KindStdStage:
		return "std-stage"
	case KindDWT:
		return "dwt"
	case KindSVM:
		return "svm"
	case KindFusion:
		return "fusion"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Spec describes a concrete functional cell to characterize.
type Spec struct {
	Kind Kind
	// Feat selects the statistical feature when Kind == KindFeature.
	Feat stats.Feature
	// N is the input length (feature and DWT cells).
	N int
	// SVs and Dim size an SVM cell; Linear selects the linear kernel.
	SVs    int
	Dim    int
	Linear bool
	// Bases sizes the fusion cell.
	Bases int
}

// Name returns a short human-readable cell name ("Var", "DWT", ...).
func (s Spec) Name() string {
	switch s.Kind {
	case KindFeature:
		return s.Feat.String()
	case KindStdStage:
		return "StdStage"
	case KindDWT:
		return "DWT"
	case KindSVM:
		return "SVM"
	case KindFusion:
		return "Fusion"
	default:
		return s.Kind.String()
	}
}

// Ops counts the primitive operations of one cell activation. Mac is a
// fused multiply-accumulate; serial mode decomposes it into Mul+Add,
// pipeline/parallel modes execute it as one pipelined operation.
type Ops struct {
	Cmp  int64 // compare/select
	Add  int64 // add/sub/accumulate
	Mul  int64 // multiply
	Mac  int64 // fused multiply-accumulate
	Div  int64 // divide
	Sqrt int64 // square root
	Exp  int64 // exponential
}

// Total returns the total operation count (Mac counted once).
func (o Ops) Total() int64 {
	return o.Cmp + o.Add + o.Mul + o.Mac + o.Div + o.Sqrt + o.Exp
}

// Ops returns the operation counts for one activation of the cell.
//
// Only the DWT cell reports fused MACs: a matrix multiplication maps
// onto a systolic MAC array in pipeline/parallel mode, which is the
// structural reason pipeline wins for DWT in Figure 4. The other cells'
// accumulations are data-dependent and are modeled as separate
// multiplies and adds in every mode.
func (s Spec) Ops() Ops {
	n := int64(s.N)
	switch s.Kind {
	case KindStdStage:
		return Ops{Sqrt: 1}
	case KindDWT:
		// The paper treats a DWT level as a matrix multiplication
		// (§3.1.2); the matrix of an 8-tap filter bank is banded, so
		// one activation is n output dot products of DWTTaps MACs.
		return Ops{Mac: n * DWTTaps}
	case KindSVM:
		d := int64(s.Dim)
		v := int64(s.SVs)
		if s.Linear {
			return Ops{Add: d + 1, Mul: d}
		}
		// Per SV per dim: operand fetch/index, sub, square, accumulate.
		// Per SV: scale by γ, exp, scale by coefficient, accumulate.
		// Plus the bias add.
		return Ops{Add: 3*v*d + v + 1, Mul: v*d + 2*v, Exp: v}
	case KindFusion:
		b := int64(s.Bases)
		return Ops{Add: b + 1, Mul: b, Cmp: 1}
	default:
		return featureOps(s.Feat, n)
	}
}

func featureOps(f stats.Feature, n int64) Ops {
	switch f {
	case stats.Max, stats.Min:
		return Ops{Cmp: n}
	case stats.Mean:
		return Ops{Add: n, Div: 1}
	case stats.CZero:
		// Mean, then per-sample deviation + sign-change compare.
		return Ops{Add: 2 * n, Cmp: 2 * n, Div: 1}
	case stats.Var:
		// Mean; per-sample sub, square, accumulate; final divide.
		return Ops{Add: 3 * n, Mul: n, Div: 2}
	case stats.Std:
		o := featureOps(stats.Var, n)
		o.Sqrt++
		return o
	case stats.Skew:
		// Mean; per-sample sub, d²+d³ products and accumulates;
		// m2^(3/2) via sqrt and multiplies; final divide.
		return Ops{Add: 4 * n, Mul: 2*n + 2, Div: 3, Sqrt: 1}
	case stats.Kurt:
		// Mean; per-sample sub, d², d⁴ products and accumulates;
		// final divides.
		return Ops{Add: 4 * n, Mul: 2*n + 1, Div: 3}
	default:
		return Ops{}
	}
}

// parallelWidth returns the number of parallel lanes the fully-unrolled
// (monotonic parallel) implementation of the cell instantiates.
func (s Spec) parallelWidth() int {
	switch s.Kind {
	case KindDWT:
		// One multiplier per input sample — "a large number of
		// multipliers to compute simultaneously" (§3.1.2).
		return maxInt(2, s.N)
	case KindSVM:
		return maxInt(2, s.Dim)
	case KindFusion:
		return maxInt(2, s.Bases)
	case KindStdStage:
		return 2
	default:
		return 8
	}
}

// broadcastBeta is the per-lane dynamic overhead of the parallel mode's
// operand broadcast / result collection network. The DWT array is
// calibrated high: its fully-unrolled matrix multiplier suffers the
// glitching and wiring overhead that makes parallel DWT two orders of
// magnitude worse than serial in Figure 4.
func (s Spec) broadcastBeta() float64 {
	if s.Kind == KindDWT {
		return 0.7
	}
	return 0.06
}

// Per-operation dynamic energy at 90 nm, joules. Includes the operand
// buffer accesses of the micro-unit (Fig. 3: S-ALU + buffer).
const (
	eCmp = 18e-12
	eAdd = 20e-12
	eMul = 35e-12
	eMac = 45e-12
	eDiv = 60e-12
	// Serial S-ALUs have no dedicated root array: they microcode sqrt
	// as a digit-recurrence iteration over the 32-bit datapath (§3.1.1
	// "super computation"), which is slow and energy-hungry — the
	// structural reason the Std cell is pipeline-best in Figure 4.
	// Serial exp uses range reduction plus a short polynomial and stays
	// cheap, keeping the SVM cell serial-best.
	eSqrtSerial = 4300e-12
	eExpSerial  = 650e-12
	eSqrtArray  = 90e-12
	eExpArray   = 320e-12
)

// Per-operation serial latencies in cycles.
const (
	cCmp        = 1
	cAdd        = 1
	cMul        = 4
	cDiv        = 16
	cSqrtSerial = 800 // digit-recurrence microcode
	cExpSerial  = 56
	// Dedicated array latencies (pipeline fill / parallel depth).
	cSqrtArray = 33
	cExpArray  = 34
)

// pipelineFill is the pipeline depth in cycles charged once per
// activation.
const pipelineFill = 32

// staticUnitPower is the leakage + local clock power of one active
// datapath unit at 90 nm (idle cells are power-gated off).
const staticUnitPower = 60e-6 // W

// pipelineUnits is the effective static-unit count of a pipelined
// datapath (stage registers, forwarding network and the dedicated
// sqrt/exp arrays kept powered while the cell is active).
const pipelineUnits = 4

// gateOverheadEnergy and gateOverheadCycles charge the power-gating
// wake/sleep transition once per activation. Prior work (§4.3, citing
// Jiang et al.) finds this overhead very limited; it is included for
// completeness.
const (
	gateOverheadEnergy = 10e-12
	gateOverheadCycles = 2
)

// Profile is the characterization result for one (spec, mode, process).
type Profile struct {
	Mode    Mode
	Process Process
	// DynEnergy and StaticEnergy are joules per event.
	DynEnergy    float64
	StaticEnergy float64
	// Cycles is the activation latency in cell clock cycles.
	Cycles int64
}

// Energy returns total joules per event.
func (p Profile) Energy() float64 { return p.DynEnergy + p.StaticEnergy }

// Delay returns the activation latency in seconds.
func (p Profile) Delay() float64 { return float64(p.Cycles) / ClockHz }

// Power returns the average active power in watts.
func (p Profile) Power() float64 {
	d := p.Delay()
	if d == 0 {
		return 0
	}
	return p.Energy() / d
}

// Characterize computes the energy/delay profile of spec under the given
// ALU mode and process node.
func Characterize(spec Spec, mode Mode, proc Process) Profile {
	ops := spec.Ops()
	var dyn float64 // @90nm
	var cycles int64
	var units float64

	switch mode {
	case Serial:
		// Monotonic serial: one multi-function ALU, microcoded
		// sqrt/exp, MACs decomposed into mul+add.
		dyn = float64(ops.Cmp)*eCmp + float64(ops.Add)*eAdd +
			float64(ops.Mul)*eMul + float64(ops.Mac)*(eMul+eAdd) +
			float64(ops.Div)*eDiv + float64(ops.Sqrt)*eSqrtSerial +
			float64(ops.Exp)*eExpSerial
		cycles = ops.Cmp*cCmp + ops.Add*cAdd + ops.Mul*cMul +
			ops.Mac*(cMul+cAdd) + ops.Div*cDiv +
			ops.Sqrt*cSqrtSerial + ops.Exp*cExpSerial
		units = 1
	case Pipeline:
		// Initiation interval 1 for every op on dedicated units, plus
		// one pipeline fill; ~10% register overhead on dynamic energy.
		raw := float64(ops.Cmp)*eCmp + float64(ops.Add)*eAdd +
			float64(ops.Mul)*eMul + float64(ops.Mac)*eMac +
			float64(ops.Div)*eDiv + float64(ops.Sqrt)*eSqrtArray +
			float64(ops.Exp)*eExpArray
		dyn = raw * 1.10
		cycles = ops.Total() + pipelineFill
		if ops.Sqrt > 0 {
			cycles += cSqrtArray
		}
		if ops.Exp > 0 {
			cycles += cExpArray
		}
		units = pipelineUnits
	default: // Parallel
		width := float64(spec.parallelWidth())
		raw := float64(ops.Cmp)*eCmp + float64(ops.Add)*eAdd +
			float64(ops.Mul)*eMul + float64(ops.Mac)*eMac +
			float64(ops.Div)*eDiv + float64(ops.Sqrt)*eSqrtArray +
			float64(ops.Exp)*eExpArray
		dyn = raw * (1.25 + spec.broadcastBeta()*(width-1))
		cycles = int64(math.Ceil(float64(ops.Total())/width)) + 4
		if ops.Sqrt > 0 {
			cycles += cSqrtArray
		}
		if ops.Exp > 0 {
			cycles += cExpArray
		}
		units = width
	}
	cycles += gateOverheadCycles
	dyn += gateOverheadEnergy
	dyn *= proc.dynScale()
	static := staticUnitPower * proc.staticScale() * units * float64(cycles) / ClockHz
	return Profile{Mode: mode, Process: proc, DynEnergy: dyn, StaticEnergy: static, Cycles: cycles}
}

// BestMode returns the energy-minimal monotonic ALU mode for spec
// (design rule 2 — the red stars of Fig. 4) and its profile.
func BestMode(spec Spec, proc Process) (Mode, Profile) {
	bestMode, best := Modes[0], Characterize(spec, Modes[0], proc)
	for _, m := range Modes[1:] {
		p := Characterize(spec, m, proc)
		if p.Energy() < best.Energy() {
			best, bestMode = p, m
		}
	}
	return bestMode, best
}

// SoftwareOps returns the cell's total primitive operation count as
// executed in software on the aggregator (MACs count as two ops,
// sqrt/exp as their iterative expansions) — the input to the
// aggregator's CPU energy model.
func (s Spec) SoftwareOps() int64 {
	o := s.Ops()
	return o.Cmp + o.Add + o.Mul + 2*o.Mac + 8*o.Div + 12*o.Sqrt + 16*o.Exp
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
