package adaptive_test

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"xpro/internal/adaptive"
	"xpro/internal/aggregator"
	"xpro/internal/celllib"
	"xpro/internal/chaos"
	"xpro/internal/ensemble"
	"xpro/internal/experiments"
	"xpro/internal/faults"
	"xpro/internal/frame"
	"xpro/internal/partition"
	"xpro/internal/sensornode"
	"xpro/internal/telemetry"
	"xpro/internal/topology"
	"xpro/internal/wireless"
	"xpro/internal/xsystem"
)

// The tests in this file check the re-pricing energy floor: the bound
// it certifies (every placement costs at least that much) and the
// decisions it takes in place of the generator sweep (none of them
// hides a swap the sweep would have made).

var (
	labOnce sync.Once
	lab     *experiments.Lab
)

// caseLab trains the six Table 1 cases with a minimal protocol: these
// tests need the cases' graphs and a classifier to drive soaks, not
// accuracy.
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

// floorCase is one graph and radio the floor is checked on.
type floorCase struct {
	name  string
	graph *topology.Graph
	ens   *ensemble.Ensemble
	link  wireless.Model
}

// floorCases returns the six Table 1 cases and a spread of synthetic
// topologies, each on one of the three paper radios in turn.
func floorCases(t testing.TB) []floorCase {
	t.Helper()
	links := wireless.Models()
	var out []floorCase
	l := caseLab()
	for i, sym := range l.Symbols() {
		inst, err := l.Instance(sym)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, floorCase{name: sym, graph: inst.Graph, ens: inst.Ens, link: links[i%len(links)]})
	}
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g, err := topology.Synthetic(rng, 64+rng.Intn(192))
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, floorCase{name: fmt.Sprintf("synthetic-%d", seed), graph: g, link: links[int(seed)%len(links)]})
	}
	return out
}

// generated places fc's graph on the delay-constrained min cut, as the
// engines deploy it, and returns the system with its limit T_XPro.
func generated(t testing.TB, fc floorCase) (*xsystem.System, float64) {
	t.Helper()
	sys, err := xsystem.New(fc.graph, fc.ens, celllib.P90, fc.link, aggregator.CortexA8(),
		partition.InSensor(fc.graph), sensornode.DefaultSampleRateHz)
	if err != nil {
		t.Fatal(err)
	}
	delayOf := func(p partition.Placement) float64 { return sys.DelayOf(p).Total() }
	limit := math.Min(delayOf(partition.InSensor(fc.graph)), delayOf(partition.InAggregator(fc.graph)))
	res, err := sys.Problem().Generate(delayOf, limit)
	if err != nil {
		t.Fatal(err)
	}
	cross, err := sys.WithPlacement(res.Placement)
	if err != nil {
		t.Fatal(err)
	}
	return cross, limit
}

// priced is sys's problem under est, exactly as the controller
// re-prices it, with the inflation it prices at.
func priced(sys *xsystem.System, est adaptive.Estimate, maxInflation float64) (*partition.Problem, float64) {
	prob := *sys.Problem()
	prob.Link = est.EffectiveModel(sys.Link, maxInflation)
	return &prob, est.Inflation(maxInflation)
}

// randomEstimate draws a channel estimate whose inflation covers
// [1, maxInflation], including the clean channel and the capped one.
func randomEstimate(rng *rand.Rand) adaptive.Estimate {
	switch rng.Intn(8) {
	case 0:
		return adaptive.Estimate{}
	case 1:
		return adaptive.Estimate{Loss: rng.Float64(), Outage: 0.5 + rng.Float64()/2}
	}
	return adaptive.Estimate{Loss: rng.Float64(), Outage: rng.Float64() / 2}
}

// perturbed returns p with up to k cells flipped, keeping the source
// readers grouped: near-optimal placements are the ones that test a
// lower bound hardest.
func perturbed(rng *rand.Rand, g *topology.Graph, p partition.Placement, k int) partition.Placement {
	q := append(partition.Placement(nil), p...)
	for n := rng.Intn(k + 1); n > 0; n-- {
		i := rng.Intn(len(q))
		q[i] = 1 - q[i]
	}
	readers := g.SourceReaders()
	for _, id := range readers {
		q[id] = q[readers[0]]
	}
	return q
}

func randomGrouped(rng *rand.Rand, g *topology.Graph) partition.Placement {
	p := make(partition.Placement, len(g.Cells))
	for i := range p {
		p[i] = partition.End(rng.Intn(2))
	}
	return perturbed(rng, g, p, 0)
}

// TestFloorBoundsEveryPlacement: the memoized floor, a chord or a
// point below, is a lower bound on the sensor energy of every
// placement, and on the freshly solved M(f); solved M(f) never falls
// as f grows.
func TestFloorBoundsEveryPlacement(t *testing.T) {
	cfg := adaptive.DefaultConfig()
	for ci, fc := range floorCases(t) {
		sys, limit := generated(t, fc)
		c, err := adaptive.NewController(cfg, sys, limit, telemetry.NewRegistry())
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(100 + ci)))

		// Memoize a handful of solved points, then check monotonicity
		// across them.
		type solved struct{ f, m, lo float64 }
		var pts []solved
		for k := 0; k < 6; k++ {
			prob, f := priced(sys, randomEstimate(rng), cfg.MaxInflation)
			_, m := prob.MinCut()
			pts = append(pts, solved{f: f, m: m, lo: c.SolveFloor(prob, f)})
		}
		sort.Slice(pts, func(i, j int) bool { return pts[i].f < pts[j].f })
		for k := 1; k < len(pts); k++ {
			if pts[k].m < pts[k-1].lo {
				t.Errorf("%s: M(%.6g) = %.9g falls below the certified M(%.6g) ≥ %.9g",
					fc.name, pts[k].f, pts[k].m, pts[k-1].f, pts[k-1].lo)
			}
		}

		bounded := 0
		for k := 0; k < 40; k++ {
			est := randomEstimate(rng)
			prob, f := priced(sys, est, cfg.MaxInflation)
			memo := c.MemoFloor(f)
			opt, m := prob.MinCut()
			fresh, err := adaptive.NewController(cfg, sys, limit, telemetry.NewRegistry())
			if err != nil {
				t.Fatal(err)
			}
			lo := fresh.SolveFloor(prob, f)
			if m < memo {
				t.Errorf("%s: memo floor %.9g exceeds the solved M(%.6g) = %.9g", fc.name, memo, f, m)
			}
			if !math.IsInf(memo, -1) {
				bounded++
			}
			ps := []partition.Placement{
				partition.InSensor(fc.graph), partition.InAggregator(fc.graph),
				partition.Trivial(fc.graph), sys.Placement, opt,
			}
			for j := 0; j < 20; j++ {
				ps = append(ps, perturbed(rng, fc.graph, opt, 3), randomGrouped(rng, fc.graph))
			}
			for _, p := range ps {
				e := prob.SensorEnergy(p)
				if e < memo || e < lo {
					t.Errorf("%s: placement energy %.9g at f = %.6g under the floor (memo %.9g, solved %.9g)",
						fc.name, e, f, memo, lo)
				}
			}
		}
		if bounded == 0 {
			t.Errorf("%s: the memo bounded none of the sampled inflations", fc.name)
		}
	}
}

// floorOracle is the differential check: on every evaluation the floor
// answers, it runs the unchanged generator path and fails the test if
// that path would have swapped.
func floorOracle(t *testing.T, hits *int) {
	adaptive.SetFloorOracle(t, func(c *adaptive.Controller, prob *partition.Problem, activeE float64) {
		*hits++
		if cand, e := c.Sweep(prob, activeE); cand != nil {
			t.Errorf("floor certified no swap, but the sweep swaps to energy %.9g from %.9g", e, activeE)
		}
	})
}

// repricings counts the evaluations past the dwell and probation
// early-outs, certified or swept.
func repricings(reg *telemetry.Registry) float64 {
	for _, m := range reg.Snapshot() {
		if m.Name == "xpro_recut_eval_wall_seconds" {
			return float64(m.Count)
		}
	}
	return 0
}

// TestFloorOracleRandomWalk walks the channel estimate over
// f ∈ [1, MaxInflation] on every case and synthetic topology. The
// oracle checks each certified evaluation; the walk must also reach
// full sweeps and swaps, so both paths are exercised.
func TestFloorOracleRandomWalk(t *testing.T) {
	var hits int
	floorOracle(t, &hits)
	cfg := adaptive.DefaultConfig()
	var certified, sweeps, swaps float64
	for ci, fc := range floorCases(t) {
		sys, limit := generated(t, fc)
		reg := telemetry.NewRegistry()
		c, err := adaptive.NewController(cfg, sys, limit, reg)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(200 + ci)))
		var loss, outage, now float64
		for step := 0; step < 150; step++ {
			now += cfg.MinDwellSeconds
			c.ObserveEvent(now, xsystem.Outcome{}, false)
			loss = math.Min(math.Max(loss+0.1*rng.NormFloat64(), 0), 0.99)
			if rng.Float64() < 0.05 {
				outage = rng.Float64()
			} else {
				outage *= 0.8
			}
			if err := c.Estimator().Restore(adaptive.EstimatorState{Loss: loss, Outage: outage}); err != nil {
				t.Fatal(err)
			}
			if _, err := c.Evaluate(now); err != nil {
				t.Fatal(err)
			}
		}
		n := reg.Counter("xpro_recut_floor_certified_total", "").Value()
		certified += n
		sweeps += repricings(reg) - n
		swaps += reg.Counter("xpro_recut_swaps_total", "").Value()
	}
	if float64(hits) != certified {
		t.Errorf("oracle ran %d times, floor certified %v evaluations", hits, certified)
	}
	if certified == 0 || sweeps == 0 || swaps == 0 {
		t.Errorf("walk did not exercise both paths: %v certified, %v sweeps, %v swaps", certified, sweeps, swaps)
	}
	t.Logf("%v certified, %v full sweeps, %v swaps", certified, sweeps, swaps)
}

// TestFloorOracleChaosProfiles runs the oracle through the chaos
// soaks: loss storms, mixed corruption, node reboots and bit flips.
func TestFloorOracleChaosProfiles(t *testing.T) {
	var hits int
	floorOracle(t, &hits)
	inst, err := caseLab().Instance("E2")
	if err != nil {
		t.Fatal(err)
	}
	// E2 on Model3 is the chaos battery's own pairing.
	sys, _ := generated(t, floorCase{graph: inst.Graph, ens: inst.Ens, link: wireless.Model3()})
	framed := &faults.Framing{Impute: frame.HoldLast}
	for _, run := range []struct {
		profile string
		framing *faults.Framing
	}{
		{"squall", nil}, {"garble", framed}, {"reboot-storm", nil}, {"hailstorm", framed},
	} {
		before := hits
		res, err := chaos.Soak(sys, inst.Test.Segs, chaos.Config{Profile: run.profile, Seed: 7, Framing: run.framing})
		if err != nil {
			t.Fatalf("%s: %v", run.profile, err)
		}
		if hits == before {
			t.Errorf("%s: the floor answered no evaluation", run.profile)
		}
		t.Logf("%s: floor answered %d evaluations, %d decisions", run.profile, hits-before, len(res.Decisions))
	}
}

// TestFloorAnchor walks the loss estimate down from 0.9 to 0 on every
// case and synthetic topology, one dwell apart, so each re-pricing sets
// a new low. A memo of solved inflations alone bounds none of them and
// solves each; anchored at f = 1 by the first floor check, it bounds
// every f ≥ 1 from then on and solves only where the chord from the
// anchor falls short. The oracle re-checks every certified evaluation.
func TestFloorAnchor(t *testing.T) {
	var hits int
	floorOracle(t, &hits)
	cfg := adaptive.DefaultConfig()
	const steps, maxPoints = 40, 10
	probe := []float64{1, 1 + 1e-12, 1.01, 1.5, 2, 8, cfg.MaxInflation / 2, cfg.MaxInflation, 1e9}
	for _, fc := range floorCases(t) {
		sys, limit := generated(t, fc)
		reg := telemetry.NewRegistry()
		c, err := adaptive.NewController(cfg, sys, limit, reg)
		if err != nil {
			t.Fatal(err)
		}
		now := 0.0
		unbounded := 0
		for step := 0; step < steps; step++ {
			now += cfg.MinDwellSeconds
			c.ObserveEvent(now, xsystem.Outcome{}, false)
			loss := 0.9 * float64(steps-1-step) / float64(steps-1)
			if err := c.Estimator().Restore(adaptive.EstimatorState{Loss: loss}); err != nil {
				t.Fatal(err)
			}
			if _, err := c.Evaluate(now); err != nil {
				t.Fatal(err)
			}
			if repricings(reg) == 0 {
				continue
			}
			for _, f := range probe {
				if lo := c.MemoFloor(f); math.IsInf(lo, 0) || math.IsNaN(lo) {
					unbounded++
				}
			}
		}
		if repricings(reg) == 0 {
			t.Fatalf("%s: the walk re-priced nothing", fc.name)
		}
		if unbounded > 0 {
			t.Errorf("%s: %d probes of the memo at f ≥ 1 found no finite floor after the first check", fc.name, unbounded)
		}
		n := c.MemoPoints()
		t.Logf("%s: %d memo points for %v re-pricings, %v certified", fc.name, n, repricings(reg),
			reg.Counter("xpro_recut_floor_certified_total", "").Value())
		if n > maxPoints {
			t.Errorf("%s: the memo holds %d points, want at most %d", fc.name, n, maxPoints)
		}
	}
	if hits == 0 {
		t.Error("the floor certified no evaluation of the walk")
	}
}
