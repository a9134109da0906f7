package partition

import (
	"math"
	"math/rand"
	"testing"

	"xpro/internal/biosig"
	"xpro/internal/celllib"
	"xpro/internal/ensemble"
	"xpro/internal/partition/oracle"
	"xpro/internal/sensornode"
	"xpro/internal/topology"
	"xpro/internal/wireless"
)

// smallProblem builds a deliberately tiny instance (few cells) so the
// full placement space is enumerable.
func smallProblem(t *testing.T, seed int64, link wireless.Model) *Problem {
	t.Helper()
	spec, err := biosig.CaseBySymbol("C1")
	if err != nil {
		t.Fatal(err)
	}
	d := biosig.Generate(spec)
	rng := rand.New(rand.NewSource(seed))
	train, _ := d.Split(0.5, rng)
	cfg := ensemble.DefaultConfig(seed)
	cfg.Candidates = 3
	cfg.TopFrac = 0.5    // 2 base classifiers
	cfg.SubspaceSize = 4 // tiny subspaces keep the cell count enumerable
	cfg.Folds = 2
	cfg.CandidateTrainCap = 80
	ens, err := ensemble.Train(train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	g, err := topology.Build(ens, d.SegLen)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Cells) > 32 {
		t.Skipf("instance too large to enumerate (%d cells)", len(g.Cells))
	}
	hw := sensornode.Characterize(g, celllib.P90)
	return &Problem{Graph: g, HW: hw, Link: link, SensingEnergy: 0}
}

// legacyOracle poses the 2-end placement space of pr to the oracle
// enumerator: the paper's s-t cut admits non-monotone placements, so no
// precedence edges are posed — only the grouped source readers. The
// enumeration logic itself lives in partition/oracle (one
// implementation for every battery, 2-end and k-way alike).
func legacyOracle(pr *Problem) *oracle.Problem {
	op := &oracle.Problem{Cells: len(pr.Graph.Cells), Tiers: 2}
	if readers := pr.Graph.SourceReaders(); len(readers) > 1 {
		grp := make([]int, len(readers))
		for i, id := range readers {
			grp[i] = int(id)
		}
		op.Groups = append(op.Groups, grp)
	}
	return op
}

// bruteForceSensorEnergy finds the true 2-end optimum by exhaustive
// enumeration via the oracle package.
func bruteForceSensorEnergy(t *testing.T, pr *Problem) (Placement, float64) {
	t.Helper()
	if legacyOracle(pr).Space() > 1<<22 {
		t.Skipf("placement space too large to enumerate (%d cells)", len(pr.Graph.Cells))
	}
	buf := make(Placement, len(pr.Graph.Cells))
	res, err := legacyOracle(pr).Optimal(func(assign []int) float64 {
		for i, e := range assign {
			buf[i] = End(e)
		}
		return pr.SensorEnergy(buf)
	})
	if err != nil {
		t.Fatal(err)
	}
	p := make(Placement, len(res.Assign))
	for i, e := range res.Assign {
		p[i] = End(e)
	}
	return p, res.Cost
}

// TestMinCutExhaustivelyOptimal enumerates EVERY placement of a small
// instance (with the source-reading group fixed to one end, per the
// grouped theorem) and verifies that nothing beats the generator's cut.
// This is the ground-truth check of the §3.2.2 reduction.
func TestMinCutExhaustivelyOptimal(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive enumeration")
	}
	for _, link := range wireless.Models() {
		pr := smallProblem(t, 31, link)
		_, minE := pr.MinCut()
		bestP, bestBrute := bruteForceSensorEnergy(t, pr)
		if math.Abs(minE-bestBrute) > 1e-12+1e-9*bestBrute {
			ns, na := bestP.Counts()
			t.Errorf("%v: min-cut %v J but brute force found %v J (%d/%d)", link, minE, bestBrute, ns, na)
		}
	}
}

// TestMinCutExhaustiveMultipleSeeds repeats the ground-truth check over
// several trained instances, catching construction bugs that depend on
// which features/bases the training happens to select.
func TestMinCutExhaustiveMultipleSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive enumeration")
	}
	for _, seed := range []int64{7, 19, 23} {
		pr := smallProblem(t, seed, wireless.Model2())
		_, minE := pr.MinCut()
		_, best := bruteForceSensorEnergy(t, pr)
		if math.Abs(minE-best) > 1e-12+1e-9*best {
			t.Errorf("seed %d: min-cut %v J, brute force %v J", seed, minE, best)
		}
	}
}

// TestExhaustiveAcrossTierCounts is the k-way ground-truth battery on
// hand-built DAGs: for every tier count the solver must equal the
// oracle optimum found by enumerating the full monotone assignment
// space. The 2-end checks above and this one share the oracle package's
// single enumeration implementation.
func TestExhaustiveAcrossTierCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive enumeration")
	}
	for _, k := range []int{2, 3, 4, 5} {
		for _, seed := range []int64{41, 42, 43} {
			rng := rand.New(rand.NewSource(seed))
			g := tinyDAG(rng, 4+rng.Intn(6)) // 4..9 cells: enumerable at k=5
			tp, err := tinyTiered(g, k)
			if err != nil {
				t.Fatal(err)
			}
			_, optC, ok := oracleOptimum(t, tp)
			if !ok {
				continue
			}
			res, err := tp.Solve()
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(res.Cost-optC) > costTol(optC) {
				t.Errorf("k=%d seed=%d: solver %v, oracle %v", k, seed, res.Cost, optC)
			}
		}
	}
}
