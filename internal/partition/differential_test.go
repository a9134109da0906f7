package partition_test

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"xpro/internal/adaptive"
	"xpro/internal/aggregator"
	"xpro/internal/celllib"
	"xpro/internal/ensemble"
	"xpro/internal/experiments"
	"xpro/internal/partition"
	"xpro/internal/sensornode"
	"xpro/internal/telemetry"
	"xpro/internal/topology"
	"xpro/internal/wireless"
	"xpro/internal/xsystem"
)

// The tests in this file check compiled pricing — the shared View and
// the CutGraph re-solved in place — against the per-call pricing it
// replaced (reference_test.go), bit for bit, on the paper's six cases
// and on synthetic topologies, under every channel inflation the
// adaptive controller prices at.

var (
	labOnce sync.Once
	lab     *experiments.Lab
)

// caseLab trains the six Table 1 cases with a minimal protocol: these
// tests need the cases' graphs and hardware, not accuracy.
func caseLab() *experiments.Lab {
	labOnce.Do(func() {
		lab = experiments.NewLab()
		lab.Config = func(seed int64) ensemble.Config {
			cfg := ensemble.DefaultConfig(seed)
			cfg.Candidates = 8
			cfg.Folds = 2
			cfg.TopFrac = 0.4
			cfg.CandidateTrainCap = 160
			return cfg
		}
	})
	return lab
}

// pricedSystem is one graph on one radio, as an engine deploys it.
type pricedSystem struct {
	name string
	sys  *xsystem.System
}

// pricedSystems returns the six cases and six synthetic topologies,
// each on one of the three paper radios in turn.
func pricedSystems(t testing.TB) []pricedSystem {
	t.Helper()
	links := wireless.Models()
	var out []pricedSystem
	add := func(name string, g *topology.Graph, ens *ensemble.Ensemble, link wireless.Model) {
		sys, err := xsystem.New(g, ens, celllib.P90, link, aggregator.CortexA8(),
			partition.InSensor(g), sensornode.DefaultSampleRateHz)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, pricedSystem{name: name, sys: sys})
	}
	l := caseLab()
	for i, sym := range l.Symbols() {
		inst, err := l.Instance(sym)
		if err != nil {
			t.Fatal(err)
		}
		add(sym, inst.Graph, inst.Ens, links[i%len(links)])
	}
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g, err := topology.Synthetic(rng, 16+rng.Intn(240))
		if err != nil {
			t.Fatal(err)
		}
		add(fmt.Sprintf("synthetic-%d", seed), g, nil, links[int(seed)%len(links)])
	}
	return out
}

// inflations are the channel estimates priced: inflation 1 (the clean
// channel) through the cap MaxInflation, which a hard outage prices at.
func inflations() []adaptive.Estimate {
	var ests []adaptive.Estimate
	for _, f := range []float64{1, 1.25, 2, 3, 5.5, 8, 16, 31, 48} {
		ests = append(ests, adaptive.Estimate{Loss: 1 - 1/f})
	}
	return append(ests, adaptive.Estimate{Outage: 1})
}

// sameResult reports whether two generator results are identical, every
// float bit for bit.
func sameResult(a, b partition.Result) bool {
	return a.Placement.Equal(b.Placement) && a.Energy == b.Energy && a.Delay == b.Delay &&
		a.Lambda == b.Lambda && a.Fallback == b.Fallback
}

func TestCompiledPricingMatchesReference(t *testing.T) {
	maxInflation := adaptive.DefaultConfig().MaxInflation
	reg := telemetry.NewRegistry()
	var repairs, fallbacks, errs int
	for _, ps := range pricedSystems(t) {
		sys := ps.sys
		g := sys.Graph
		clean := func(p partition.Placement) float64 { return sys.DelayOf(p).Total() }
		cleanLimit := math.Min(clean(partition.InSensor(g)), clean(partition.InAggregator(g)))
		// One graph re-priced across every inflation and weight, as the
		// adaptive controller and the sweep reuse theirs.
		cg := sys.Problem().NewCutGraph()
		rng := rand.New(rand.NewSource(int64(len(g.Cells))))
		for _, est := range inflations() {
			prob := *sys.Problem()
			prob.Link = est.EffectiveModel(sys.Link, maxInflation)
			prob.Metrics = reg
			name := fmt.Sprintf("%s/f=%.4g", ps.name, est.Inflation(maxInflation))

			for _, l := range partition.LambdaLadder {
				if got, want := cg.Cut(prob.Link, l), prob.RefCut(l); !got.Equal(want) {
					t.Fatalf("%s: λ = %g: compiled cut %v, fresh graph %v", name, l, got, want)
				}
			}
			wantP, wantE := prob.RefMinCut()
			for _, got := range []func() (partition.Placement, float64){
				prob.MinCut, func() (partition.Placement, float64) { return cg.MinCut(&prob) },
			} {
				if p, e := got(); !p.Equal(wantP) || e != wantE {
					t.Fatalf("%s: min cut %v at %v, reference %v at %v", name, p, e, wantP, wantE)
				}
			}

			pls := []partition.Placement{
				partition.InSensor(g), partition.InAggregator(g), partition.Trivial(g), wantP,
			}
			for i := 0; i < 8; i++ {
				p := make(partition.Placement, len(g.Cells))
				for j := range p {
					p[j] = partition.End(rng.Intn(2))
				}
				pls = append(pls, p)
			}
			for _, p := range pls {
				if got, want := prob.SensorEnergy(p), prob.RefSensorEnergy(p); got != want {
					t.Fatalf("%s: SensorEnergy %v, reference %v", name, got, want)
				}
			}

			// The controller's re-pricing: delay on the derated link, against
			// the clean T_XPro (which the derated link may make infeasible)
			// and against the derated one; then a limit between the min
			// cut's delay and the in-sensor engine's, which sends the
			// sweep's infeasible cuts through greedy repair, and one no
			// placement meets.
			esys := *sys
			esys.Link = prob.Link
			delayOf := func(p partition.Placement) float64 { return esys.DelayOf(p).Total() }
			dS, dA := delayOf(partition.InSensor(g)), delayOf(partition.InAggregator(g))
			limits := []float64{cleanLimit, math.Min(dS, dA), math.Min(dS, dA) / 2}
			if dMin := delayOf(wantP); dMin > dS {
				limits = append(limits, (dMin+dS)/2)
			}
			for _, limit := range limits {
				got, gotErr := prob.Generate(delayOf, limit)
				want, wantErr := prob.RefGenerate(delayOf, limit)
				if (gotErr == nil) != (wantErr == nil) || !sameResult(got, want) {
					t.Fatalf("%s: Generate(limit %v) = %+v, %v; reference %+v, %v", name, limit, got, gotErr, want, wantErr)
				}
				if got.Fallback {
					fallbacks++
				}
				if gotErr != nil {
					errs++
				}
			}

			front, err := prob.Frontier(delayOf)
			if err != nil {
				t.Fatal(err)
			}
			if want := prob.RefFrontier(delayOf); !reflect.DeepEqual(front, want) {
				t.Fatalf("%s: frontier %+v, reference %+v", name, front, want)
			}
		}
	}
	for _, m := range reg.Snapshot() {
		if m.Name == "xpro_generate_repair_steps_total" {
			repairs = int(m.Value)
		}
	}
	if repairs == 0 {
		t.Error("no generator run reached greedy repair")
	}
	if errs == 0 {
		t.Error("no generator run met an infeasible limit")
	}
	t.Logf("%d greedy-repair steps, %d fallbacks, %d infeasible limits", repairs, fallbacks, errs)
}

// TestPricingAllocBudgets: pricing a placement on a compiled problem
// allocates nothing, and a floor re-solve on a built graph allocates at
// most the placement it returns and one more.
func TestPricingAllocBudgets(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	inst, err := caseLab().Instance("E2")
	if err != nil {
		t.Fatal(err)
	}
	sys, err := xsystem.New(inst.Graph, inst.Ens, celllib.P90, wireless.Model3(), aggregator.CortexA8(),
		partition.Trivial(inst.Graph), sensornode.DefaultSampleRateHz)
	if err != nil {
		t.Fatal(err)
	}
	prob := *sys.Problem()
	prob.Link = adaptive.Estimate{Loss: 0.5}.EffectiveModel(sys.Link, 64)
	p := sys.Placement
	if n := testing.AllocsPerRun(100, func() { prob.SensorEnergy(p) }); n != 0 {
		t.Errorf("SensorEnergy allocates %v times per call, want 0", n)
	}
	cg := sys.Problem().NewCutGraph()
	cg.MinCut(&prob)
	if n := testing.AllocsPerRun(100, func() { cg.MinCut(&prob) }); n > 2 {
		t.Errorf("a floor re-solve allocates %v times, budget 2", n)
	}
	// Building the graph appends its edges, and the first solve lays out
	// the adjacency and sizes the solver's scratch: a few allocations per
	// graph (37 measured on E2, 307 when AddEdge appended to per-node
	// lists), not one per edge.
	n := testing.AllocsPerRun(20, func() { sys.Problem().NewCutGraph().MinCut(&prob) })
	t.Logf("CutGraph build and first solve: %v allocations", n)
	if n > 41 {
		t.Errorf("a CutGraph build and first solve allocate %v times, budget 41", n)
	}
}

// TestSharedViewConcurrentPricing: copies of one problem share its view,
// so pricing from several goroutines at once, each with its own
// CutGraph, must be race-free and return the sequential results.
func TestSharedViewConcurrentPricing(t *testing.T) {
	inst, err := caseLab().Instance("E1")
	if err != nil {
		t.Fatal(err)
	}
	sys, err := xsystem.New(inst.Graph, inst.Ens, celllib.P90, wireless.Model2(), aggregator.CortexA8(),
		partition.Trivial(inst.Graph), sensornode.DefaultSampleRateHz)
	if err != nil {
		t.Fatal(err)
	}
	ests := inflations()
	type priced struct {
		p partition.Placement
		e float64
	}
	want := make([]priced, len(ests))
	for i, est := range ests {
		prob := *sys.Problem()
		prob.Link = est.EffectiveModel(sys.Link, 64)
		p, e := prob.RefMinCut()
		want[i] = priced{p, e}
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cg := sys.Problem().NewCutGraph()
			for i, est := range ests {
				prob := *sys.Problem()
				prob.Link = est.EffectiveModel(sys.Link, 64)
				p, e := cg.MinCut(&prob)
				if !p.Equal(want[i].p) || e != want[i].e || prob.SensorEnergy(sys.Placement) != prob.RefSensorEnergy(sys.Placement) {
					t.Errorf("inflation %v: concurrent pricing differs from the sequential reference", est.Inflation(64))
				}
			}
		}()
	}
	wg.Wait()
}
