// Package xpro is a Go reproduction of "XPro: A Cross-End Processing
// Architecture for Data Analytics in Wearables" (ISCA 2017).
//
// XPro embeds a generic biosignal classification pipeline — statistical
// features on the time and DWT domains feeding a random-subspace SVM
// ensemble — into a body-sensor-network system made of a
// battery-constrained wearable sensor node and a smartphone-class data
// aggregator. The pipeline is decomposed into fine-grained functional
// cells, and an Automatic XPro Generator places each cell on one of the
// two ends by solving a min-cut problem whose cut capacity equals the
// sensor node's per-event energy, under an end-to-end delay constraint.
//
// The package exposes four engine kinds: the two classical single-end
// baselines (everything on the sensor, or raw data streamed to the
// aggregator), the intuitive trivial cut at the feature/classifier
// boundary, and the generated cross-end engine, which provably never
// loses to the baselines on sensor energy.
//
// Quickstart:
//
//	eng, err := xpro.New(xpro.Config{Case: "C1"})
//	...
//	label, err := eng.Classify(eng.TestSet()[0].Samples)
//	rep := eng.Report()
//	fmt.Printf("battery life %.0f h, delay %.2f ms\n",
//		rep.SensorLifetimeHours, rep.DelayPerEventSeconds*1e3)
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-vs-measured comparison of every table and figure.
package xpro

import (
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"xpro/internal/aggregator"
	"xpro/internal/biosig"
	"xpro/internal/celllib"
	"xpro/internal/cellsim"
	"xpro/internal/ensemble"
	"xpro/internal/eventsim"
	"xpro/internal/experiments"
	"xpro/internal/faults"
	"xpro/internal/hdl"
	"xpro/internal/partition"
	"xpro/internal/sensornode"
	"xpro/internal/telemetry"
	"xpro/internal/topology"
	"xpro/internal/wireless"
	"xpro/internal/xsystem"
)

// Process selects the sensor node's fabrication technology (§4.3).
type Process int

const (
	// Process90nm is the paper's default evaluation node.
	Process90nm Process = iota
	Process130nm
	Process45nm
)

func (p Process) String() string { return p.internal().String() }

func (p Process) internal() celllib.Process {
	switch p {
	case Process130nm:
		return celllib.P130
	case Process45nm:
		return celllib.P45
	default:
		return celllib.P90
	}
}

// Wireless selects the transceiver energy model (§4.2).
type Wireless int

const (
	// WirelessModel2 (1.53/1.71 nJ/bit) is the paper's default.
	WirelessModel2 Wireless = iota
	// WirelessModel1 is the high-energy design (2.9/3.3 nJ/bit).
	WirelessModel1
	// WirelessModel3 is the ultra-low-power design (0.42/0.295 nJ/bit).
	WirelessModel3
)

func (w Wireless) String() string { return w.internal().String() }

func (w Wireless) internal() wireless.Model {
	switch w {
	case WirelessModel1:
		return wireless.Model1()
	case WirelessModel3:
		return wireless.Model3()
	default:
		return wireless.Model2()
	}
}

// EngineKind selects how the analytic engine is distributed.
type EngineKind int

const (
	// CrossEnd is the XPro engine: the delay-constrained minimum-energy
	// placement found by the Automatic XPro Generator (§3.2).
	CrossEnd EngineKind = iota
	// InSensor runs every functional cell on the wearable node.
	InSensor
	// InAggregator streams raw data and runs everything in software.
	InAggregator
	// TrivialCut places feature extraction on the sensor and
	// classification on the aggregator (§5.5, Fig. 12).
	TrivialCut
)

func (k EngineKind) String() string {
	switch k {
	case CrossEnd:
		return "cross-end"
	case InSensor:
		return "in-sensor"
	case InAggregator:
		return "in-aggregator"
	case TrivialCut:
		return "trivial-cut"
	default:
		return fmt.Sprintf("EngineKind(%d)", int(k))
	}
}

// Protocol selects the ensemble training protocol.
type Protocol int

const (
	// ProtocolFast is §4.4 with a scaled candidate pool (seconds per
	// case).
	ProtocolFast Protocol = iota
	// ProtocolPaper is the full §4.4 protocol: 100 candidate base
	// classifiers on random 12-feature subsets, top 10% kept, 10-fold
	// cross-validation (minutes per case).
	ProtocolPaper
)

// Segment is one labeled biosignal segment, samples normalized to [0,1].
type Segment struct {
	Samples []float64
	Label   int
}

// CaseInfo describes one of the six evaluation test cases (Table 1).
type CaseInfo struct {
	Symbol        string
	Name          string
	Family        string
	SegmentLength int
	SegmentCount  int
}

// Cases lists the six test cases of Table 1.
func Cases() []CaseInfo {
	var out []CaseInfo
	for _, c := range biosig.TestCases() {
		out = append(out, CaseInfo{
			Symbol:        c.Symbol,
			Name:          c.Name,
			Family:        c.Family.String(),
			SegmentLength: c.SegLen,
			SegmentCount:  c.Count,
		})
	}
	return out
}

// Dataset generates the full labeled dataset of a test case.
func Dataset(caseSym string) ([]Segment, error) {
	spec, err := biosig.CaseBySymbol(caseSym)
	if err != nil {
		return nil, err
	}
	d := biosig.Generate(spec)
	return toPublic(d.Segs), nil
}

func toPublic(segs []biosig.Segment) []Segment {
	out := make([]Segment, len(segs))
	for i, s := range segs {
		out[i] = Segment{Samples: s.Samples, Label: s.Label}
	}
	return out
}

// Config configures engine construction. The zero value builds the
// paper's default setup for a case that must be set explicitly.
type Config struct {
	// Case is a Table 1 symbol: C1, C2, E1, E2, M1, M2.
	Case string
	// Kind selects the engine distribution (default CrossEnd).
	Kind EngineKind
	// Process selects the sensor technology (default 90 nm).
	Process Process
	// Wireless selects the link model (default Model 2).
	Wireless Wireless
	// Protocol selects the training protocol (default fast).
	Protocol Protocol
	// SampleRateHz sets the biosignal sampling rate (default 2048).
	SampleRateHz float64
	// Seed overrides the case's deterministic training seed.
	Seed int64
	// PruneKeep, when in (0,1), prunes every base SVM to that fraction
	// of its largest-coefficient support vectors before the topology is
	// built — shrinking the in-sensor SVM cells at some accuracy cost
	// (see the BenchmarkAblationSVPruning numbers). 0 disables pruning.
	PruneKeep float64
	// Resilience, when set, arms the fault-tolerance layer: deadline
	// budgets, retry/backoff, circuit breaking and graceful degradation
	// through the in-sensor fallback cut (see DefaultResilience).
	Resilience *Resilience
	// FaultPlan, when set, injects a deterministic fault schedule into
	// the engine's modeled timeline (implies DefaultResilience when
	// Resilience is nil).
	FaultPlan *FaultPlan
	// Adaptive, when set, arms closed-loop adaptive repartitioning: an
	// online channel estimator fed by the resilience layer's transfer
	// evidence, and a re-cut controller that re-runs the Automatic XPro
	// Generator against the estimated channel and hot-swaps the active
	// cut between events (implies DefaultResilience when Resilience is
	// nil; see DefaultAdaptive).
	Adaptive *Adaptive
	// Integrity, when set, arms the data-plane integrity layer: framed
	// wire transport (per-frame sequencing + CRC with imputation of
	// residual loss) and a signal-quality admission gate that returns
	// ErrSuspectData instead of labeling garbage (implies
	// DefaultResilience when Resilience is nil; see DefaultIntegrity).
	Integrity *Integrity
	// SLOWindowSeconds sets the rolling window the engine's SLO
	// quantile series cover (SLOReport's p50/p95/p99 horizon): modeled
	// seconds on an engine with a Resilience policy, host seconds
	// otherwise. 0 takes the 60 s default.
	SLOWindowSeconds float64
}

// trained caches classifiers per (case, seed, protocol): training is by
// far the most expensive step of New, and Process/Wireless/Kind/pruning
// choices never affect it, so design-space sweeps (Compare, Recommend)
// reuse one trained ensemble. Cached ensembles and test sets are
// read-only after construction and safe to share across engines; the
// entry also keeps the ensemble's software accuracy on its test set.
var trained = struct {
	sync.Mutex
	m map[string]*trainedEntry
}{m: make(map[string]*trainedEntry)}

type trainedEntry struct {
	ens  *ensemble.Ensemble
	test *biosig.Dataset
	acc  float64
}

func trainedEnsemble(caseSym string, seed int64, protocol Protocol) (*trainedEntry, error) {
	key := fmt.Sprintf("%s/%d/%d", caseSym, seed, protocol)
	trained.Lock()
	defer trained.Unlock()
	if e, ok := trained.m[key]; ok {
		return e, nil
	}
	spec, err := biosig.CaseBySymbol(caseSym)
	if err != nil {
		return nil, err
	}
	d := biosig.Generate(spec)
	rng := rand.New(rand.NewSource(seed))
	train, test := d.Split(0.75, rng)
	var tcfg ensemble.Config
	if protocol == ProtocolPaper {
		tcfg = ensemble.PaperConfig(seed)
	} else {
		tcfg = ensemble.DefaultConfig(seed)
	}
	ens, err := ensemble.Train(train, tcfg)
	if err != nil {
		return nil, fmt.Errorf("xpro: training %s: %w", caseSym, err)
	}
	acc, err := ens.Accuracy(test)
	if err != nil {
		return nil, err
	}
	e := &trainedEntry{ens: ens, test: test, acc: acc}
	trained.m[key] = e
	return e, nil
}

// Engine is a fully built XPro instance: a trained classifier
// partitioned across a simulated sensor node and aggregator.
type Engine struct {
	cfg Config
	// static is the cut New built for cfg.Kind; active is the cut events
	// currently run through. Without an adaptive controller they are the
	// same system forever; with one, the controller hot-swaps active
	// between events and static stays the pristine reference.
	static *xsystem.System
	active atomic.Pointer[xsystem.System]
	ens    *ensemble.Ensemble
	graph  *topology.Graph
	test   *biosig.Dataset
	gen    partition.Result
	acc    float64
	obs    *Observer
	res    *resilient  // nil without a Resilience policy
	slo    *sloHandles // pre-resolved SLO series + memoized report
	// epoch counts the observable state changes of the engine's serving
	// configuration: adaptive hot swaps/rollbacks, circuit-breaker
	// transitions, and fault-window edges — everything that can change
	// which system effectiveSystem returns or how it is priced. Network
	// memoizes its rebuilt per-engine view against this counter.
	epoch atomic.Uint64
	// tier is the armed N-tier plan (TierPlan.Arm), if any: the SLO and
	// health reports read per-hop liveness from it, and the recovery
	// layer carries its breaker/ladder state in SubjectState.
	tier atomic.Pointer[TierPlan]
}

// generation returns the engine's serving-configuration epoch. Two
// equal generations bracket a window in which Report/RealTimeOK inputs
// cannot have changed.
func (e *Engine) generation() uint64 { return e.epoch.Load() }

// sys returns the engine's currently active system. Reads are atomic:
// the adaptive controller may swap the pointer between events while
// report/inspection methods run concurrently.
func (e *Engine) sys() *xsystem.System { return e.active.Load() }

// attachObserver points a system's telemetry hooks (and its pricing
// problem's) at the engine observer, so Classify, Stream and the
// Automatic XPro Generator all record into the same registry.
func attachObserver(sys *xsystem.System, obs *Observer) {
	sys.Metrics = obs.reg
	sys.Tracer = obs.tracer
	sys.Problem().Metrics = obs.reg
}

// newEngine finishes engine construction: it publishes the placement's
// headline figures as gauges and registers the /enginez status sections.
func newEngine(cfg Config, sys *xsystem.System, ens *ensemble.Ensemble,
	g *topology.Graph, test *biosig.Dataset, gen partition.Result,
	acc float64, obs *Observer) (*Engine, error) {
	res, err := buildResilient(cfg, sys, g, obs)
	if err != nil {
		return nil, err
	}
	e := &Engine{cfg: cfg, static: sys, ens: ens, graph: g, test: test,
		gen: gen, acc: acc, obs: obs, res: res,
		slo: newSLOHandles(obs.reg, cfg.SLOWindowSeconds)}
	e.active.Store(sys)
	if res != nil && res.breaker != nil {
		// Breaker transitions change which system effectiveSystem
		// returns; bump the serving epoch so memoized network views
		// rebuild, and land on the span trace and the structured event
		// log (sharing one trace ID). Chained after the metrics/estimator
		// hook installed by buildResilient.
		prev := res.breaker.OnTransition
		res.breaker.OnTransition = func(from, to faults.BreakerState) {
			if prev != nil {
				prev(from, to)
			}
			e.epoch.Add(1)
			var ev uint64
			if tr := obs.tracer; tr != nil {
				ev = tr.NextEvent()
				tr.Add(telemetry.Span{Event: ev, Name: "breaker", End: "event",
					Start: time.Now(), DelaySeconds: res.clock.Now()})
			}
			obs.events.Append(telemetry.Event{
				Trace: ev, TimeSeconds: res.clock.Now(), Kind: "breaker",
				Detail: from.String() + "->" + to.String(),
			})
		}
	}
	e.publishReportGauges()
	obs.setStatus("config", func() any { return e.cfg })
	obs.setStatus("placement", func() any { return e.Placement() })
	obs.setStatus("report", func() any { return e.Report() })
	obs.setStatus("slo", func() any { return e.SLOReport() })
	obs.setEndpoint("/slo", func() (int, any) { return 200, e.SLOReport() })
	obs.setEndpoint("/healthz", func() (int, any) {
		h := e.Health()
		if h.Status != "ok" {
			return 503, h
		}
		return 200, h
	})
	if res != nil && res.ctrl != nil {
		obs.setStatus("adaptive", func() any { return e.AdaptiveStatus() })
	}
	return e, nil
}

// publishReportGauges refreshes the engine's headline gauges from the
// active cut. It runs once at construction and again after every
// adaptive hot swap, so scraped dashboards follow the installed cut.
func (e *Engine) publishReportGauges() {
	rep := e.Report()
	m := e.obs.reg
	m.Gauge("xpro_engine_cells", "Functional cells in the engine topology.").
		Set(float64(rep.Cells))
	m.Gauge(telemetry.WithLabels("xpro_engine_cells_placed", map[string]string{"end": "sensor"}),
		"Functional cells placed per end.").Set(float64(rep.SensorCells))
	m.Gauge(telemetry.WithLabels("xpro_engine_cells_placed", map[string]string{"end": "aggregator"}),
		"Functional cells placed per end.").Set(float64(rep.AggregatorCells))
	m.Gauge("xpro_engine_sensor_energy_joules_per_event",
		"Modeled sensor-node energy per classification event.").Set(rep.SensorEnergyPerEvent)
	m.Gauge("xpro_engine_delay_seconds_per_event",
		"Modeled end-to-end delay per classification event.").Set(rep.DelayPerEventSeconds)
	m.Gauge("xpro_engine_sensor_lifetime_hours",
		"Modeled sensor battery lifetime.").Set(rep.SensorLifetimeHours)
}

// New trains the generic classification for cfg.Case, builds its
// functional-cell topology, characterizes the cells, and places them
// according to cfg.Kind. For CrossEnd, the Automatic XPro Generator
// solves the delay-constrained min-cut with T_XPro = min(T_F, T_B).
func New(cfg Config) (*Engine, error) {
	if cfg.Case == "" {
		return nil, errors.New("xpro: Config.Case must name a test case (C1, C2, E1, E2, M1, M2)")
	}
	spec, err := biosig.CaseBySymbol(cfg.Case)
	if err != nil {
		return nil, err
	}
	if cfg.SampleRateHz == 0 {
		cfg.SampleRateHz = sensornode.DefaultSampleRateHz
	}
	// The negated form also rejects NaN, which fails every comparison.
	if !(cfg.SampleRateHz > 0) || math.IsInf(cfg.SampleRateHz, 0) {
		return nil, fmt.Errorf("xpro: SampleRateHz %v must be positive and finite", cfg.SampleRateHz)
	}
	seed := spec.Seed
	if cfg.Seed != 0 {
		seed = cfg.Seed
	}

	entry, err := trainedEnsemble(cfg.Case, seed, cfg.Protocol)
	if err != nil {
		return nil, err
	}
	ens, test, acc := entry.ens, entry.test, entry.acc
	if cfg.PruneKeep != 0 {
		// The negated form also rejects NaN, which fails every comparison.
		if !(cfg.PruneKeep > 0 && cfg.PruneKeep < 1) {
			return nil, fmt.Errorf("xpro: PruneKeep %v outside (0,1)", cfg.PruneKeep)
		}
		ens, err = ens.Pruned(cfg.PruneKeep)
		if err != nil {
			return nil, err
		}
		// The pruned ensemble is new: its accuracy is its own.
		if acc, err = ens.Accuracy(test); err != nil {
			return nil, err
		}
	}
	g, err := topology.Build(ens, spec.SegLen)
	if err != nil {
		return nil, err
	}

	proc := cfg.Process.internal()
	link := cfg.Wireless.internal()
	cpu := aggregator.CortexA8()
	obs := newObserver(telemetry.DefaultTraceCapacity)
	mk := func(p partition.Placement) (*xsystem.System, error) {
		sys, err := xsystem.New(g, ens, proc, link, cpu, p, cfg.SampleRateHz)
		if err != nil {
			return nil, err
		}
		attachObserver(sys, obs)
		return sys, nil
	}

	var placement partition.Placement
	var gen partition.Result
	switch cfg.Kind {
	case InSensor:
		placement = partition.InSensor(g)
	case InAggregator:
		placement = partition.InAggregator(g)
	case TrivialCut:
		placement = partition.Trivial(g)
	case CrossEnd:
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
		gen, err = a.Problem().Generate(func(p partition.Placement) float64 {
			return a.DelayOf(p).Total()
		}, limit)
		if err != nil {
			return nil, fmt.Errorf("xpro: generating cross-end placement: %w", err)
		}
		placement = gen.Placement
	default:
		return nil, fmt.Errorf("xpro: unknown engine kind %d", cfg.Kind)
	}

	sys, err := mk(placement)
	if err != nil {
		return nil, err
	}
	return newEngine(cfg, sys, ens, g, test, gen, acc, obs)
}

// Classify runs one segment through the partitioned pipeline and returns
// the predicted label (0 or 1). Sensor-side cells compute in Q16.16
// fixed point, aggregator-side cells in float64. On an engine with a
// Resilience policy the event runs through the fault-tolerance ladder
// and faults degrade the answer instead of erroring — ClassifyResult
// exposes the provenance.
func (e *Engine) Classify(samples []float64) (int, error) {
	if e.res != nil {
		res, err := e.res.classify(e, biosig.Segment{Samples: samples})
		return res.Label, err
	}
	label, err := e.sys().Classify(biosig.Segment{Samples: samples})
	if err == nil {
		e.observePlainEvents(1)
	}
	return label, err
}

// observePlainEvents records n full-path events on the SLO quantile
// series of an engine without a Resilience policy: the active cut's
// modeled per-event delay and sensor energy, stamped on host uptime
// (no modeled clock exists on this path). The resilient path instead
// observes each event's actual modeled figures in classifyCtx.
func (e *Engine) observePlainEvents(n int) {
	if n <= 0 {
		return
	}
	lat := e.sys().DelayPerEvent().Total()
	en := e.sys().EnergyPerEvent().SensorTotal()
	now := telemetry.Uptime()
	for i := 0; i < n; i++ {
		e.slo.observe(now, lat, en, 0)
	}
}

// TestSet returns the engine's held-out test segments (25% of the case
// dataset, §4.4).
func (e *Engine) TestSet() []Segment { return toPublic(e.test.Segs) }

// SoftwareAccuracy is the pure-software ensemble accuracy on the held-out
// test set.
func (e *Engine) SoftwareAccuracy() float64 { return e.acc }

// Accuracy classifies the whole held-out test set through the
// partitioned pipeline.
func (e *Engine) Accuracy() (float64, error) { return e.sys().Accuracy(e.test) }

// CellPlacement describes where one functional cell landed.
type CellPlacement struct {
	Name string
	Role string
	End  string // "sensor" or "aggregator"
}

// Placement lists every functional cell and its end.
func (e *Engine) Placement() []CellPlacement {
	out := make([]CellPlacement, len(e.graph.Cells))
	for i, c := range e.graph.Cells {
		end := "aggregator"
		if e.sys().Placement.OnSensor(c.ID) {
			end = "sensor"
		}
		out[i] = CellPlacement{Name: c.Name, Role: c.Role.String(), End: end}
	}
	return out
}

// Report summarizes the engine's modeled energy, delay and lifetime.
type Report struct {
	Case string
	Kind string

	Cells           int
	SensorCells     int
	AggregatorCells int
	// UsedFallback is true when the generator fell back to a single-end
	// engine to meet the delay constraint (§3.2.3).
	UsedFallback bool

	// Sensor node per-event energy (J) and its breakdown.
	SensorEnergyPerEvent  float64
	SensorComputeEnergy   float64
	SensorWirelessEnergy  float64
	SensorSensingEnergy   float64
	SensorAvgPowerWatts   float64
	SensorLifetimeHours   float64
	AggregatorEnergyEvent float64
	AggregatorLifetimeH   float64

	// Per-event delay (s) and its Fig. 10 breakdown.
	DelayPerEventSeconds float64
	FrontEndDelay        float64
	WirelessDelay        float64
	BackEndDelay         float64

	EventsPerSecond float64
	// MaxEventRate is the highest steady-state rate the placement can
	// pipeline (slowest resource bound).
	MaxEventRate     float64
	SoftwareAccuracy float64
}

// Report computes the engine's summary.
func (e *Engine) Report() Report {
	en := e.sys().EnergyPerEvent()
	d := e.sys().DelayPerEvent()
	life, _ := e.sys().SensorLifetimeHours()
	aggLife, _ := e.sys().AggregatorLifetimeHours()
	ns, na := e.sys().Placement.Counts()
	return Report{
		Case:                  e.cfg.Case,
		Kind:                  e.cfg.Kind.String(),
		Cells:                 len(e.graph.Cells),
		SensorCells:           ns,
		AggregatorCells:       na,
		UsedFallback:          e.gen.Fallback,
		SensorEnergyPerEvent:  en.SensorTotal(),
		SensorComputeEnergy:   en.SensorCompute,
		SensorWirelessEnergy:  en.SensorWireless(),
		SensorSensingEnergy:   en.Sensing,
		SensorAvgPowerWatts:   e.sys().SensorAvgPower(),
		SensorLifetimeHours:   life,
		AggregatorEnergyEvent: en.AggregatorTotal(),
		AggregatorLifetimeH:   aggLife,
		DelayPerEventSeconds:  d.Total(),
		FrontEndDelay:         d.FrontEnd,
		WirelessDelay:         d.Wireless,
		BackEndDelay:          d.BackEnd,
		EventsPerSecond:       e.sys().EventsPerSecond(),
		MaxEventRate:          e.sys().MaxSustainableEventRate(),
		SoftwareAccuracy:      e.acc,
	}
}

// SimulatedDelay runs one event through the discrete-event scheduler
// (internal/eventsim), which models link and CPU contention explicitly
// and lets pipeline phases overlap. It is a lower, more faithful
// estimate than Report's additive Fig. 10 decomposition and never
// exceeds it.
func (e *Engine) SimulatedDelay() (float64, error) {
	tr, err := e.simulate()
	if err != nil {
		return 0, err
	}
	return tr.Finish, nil
}

// Timeline renders the discrete-event schedule of one classification
// event: every cell activation and wireless transfer with its start and
// end time.
func (e *Engine) Timeline() (string, error) {
	tr, err := e.simulate()
	if err != nil {
		return "", err
	}
	return tr.Render(), nil
}

func (e *Engine) simulate() (*eventsim.Trace, error) {
	return eventsim.Simulate(e.simInput())
}

// simInput assembles the discrete-event simulator's view of the engine.
// Simulator counters (events, transfers, battery drain) land on the
// engine observer.
func (e *Engine) simInput() eventsim.Input {
	return eventsim.Input{
		Graph:       e.graph,
		Placement:   e.sys().Placement,
		SensorDelay: e.sys().HW.Delay,
		AggDelay: func(id topology.CellID) float64 {
			return e.sys().CPU.CellCost(e.graph.Cells[id].Spec).Delay
		},
		Link:                 e.sys().Link,
		SensorEnergyPerEvent: e.sys().EnergyPerEvent().SensorTotal(),
		Metrics:              e.obs.reg,
	}
}

// Verilog emits a synthesizable Verilog skeleton of the engine's
// in-sensor analytic part: one module per sensor-placed functional cell
// with the asynchronous handshake interface of Fig. 3, plus a top-level
// module wiring the topology, with tx/rx ports at the cross-end
// boundary. Engines whose placement keeps no cell on the sensor (the
// in-aggregator engine) return an error.
func (e *Engine) Verilog() (string, error) {
	return hdl.GenerateVerilog(e.graph, e.sys().Placement, e.sys().HW)
}

// DomainImportance measures, by permutation on the held-out test set,
// which signal domains the trained classifier leans on: the share of
// total margin-importance mass per domain, keyed "time", "dwt1".."dwt5",
// "dwtA". It makes the paper's §2.1 heterogeneity claim measurable (EEG
// prefers the DWT domain, EMG the time domain).
func (e *Engine) DomainImportance() (map[string]float64, error) {
	n := len(e.test.Segs)
	if n > 200 {
		n = 200
	}
	eval := &biosig.Dataset{SegLen: e.test.SegLen, Segs: e.test.Segs[:n]}
	shares, err := e.ens.DomainImportance(eval, 2, 99)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64, len(shares))
	for d, s := range shares {
		out[ensemble.DomainName(d)] = s
	}
	return out, nil
}

// PeakPowerWatts returns the sensor node's peak instantaneous compute
// power during one event, from the cycle-stepped cell-array simulation:
// the regulator-sizing figure the average-energy model hides.
func (e *Engine) PeakPowerWatts() (float64, error) {
	res, err := cellsim.Simulate(e.graph, e.sys().Placement, e.sys().HW)
	if err != nil {
		return 0, err
	}
	return cellsim.PeakPower(res, e.sys().HW), nil
}

// DOT renders the engine's placed functional-cell graph in Graphviz
// format: sensor and aggregator clusters with crossing payloads
// highlighted.
func (e *Engine) DOT() string {
	return e.graph.DOT(e.sys().Placement.OnSensor)
}

// Compare builds all four engine kinds for one configuration and returns
// their reports in order: in-aggregator, trivial, in-sensor, cross-end.
// It retrains once per kind with identical seeds, so the underlying
// classifier is the same.
func Compare(cfg Config) ([]Report, error) {
	kinds := []EngineKind{InAggregator, TrivialCut, InSensor, CrossEnd}
	out := make([]Report, 0, len(kinds))
	for _, k := range kinds {
		c := cfg
		c.Kind = k
		eng, err := New(c)
		if err != nil {
			return nil, err
		}
		out = append(out, eng.Report())
	}
	return out, nil
}

// RunExperiments regenerates the requested paper experiment ("all",
// "table1", "fig4", "fig8".."fig13", "headline") and writes its
// formatted table to w.
func RunExperiments(w io.Writer, id string, protocol Protocol, cases ...string) error {
	lab := experiments.NewLab()
	if protocol == ProtocolPaper {
		lab.Config = ensemble.PaperConfig
	}
	lab.Cases = cases
	if id == "all" || id == "" {
		return experiments.All(lab, w)
	}
	return experiments.Run(lab, id, w)
}
