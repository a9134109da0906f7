package partition

import (
	"math"
	"math/rand"

	"xpro/internal/celllib"
	"xpro/internal/sensornode"
	"xpro/internal/stats"
	"xpro/internal/topology"
	"xpro/internal/wireless"
)

// tinyDAG hand-builds a small random layered topology with n cells:
// one or two grouped source readers, a middle of feature cells wired to
// earlier producers (broadcast payloads included), and a terminal
// fusion output. The result always passes topology.Validate, and the
// construction is fully determined by rng, so seeded tests replay.
func tinyDAG(rng *rand.Rand, n int) *topology.Graph {
	if n < 3 {
		n = 3
	}
	segLen := 64 * (1 + rng.Intn(3))
	g := &topology.Graph{SegLen: segLen, SourceBits: int64(segLen) * wireless.SampleBits}
	feats := []stats.Feature{stats.Max, stats.Min, stats.Mean, stats.Var, stats.Kurt}

	readers := 1
	if n >= 5 {
		readers += rng.Intn(2)
	}
	// outValues[i] is fixed per producer so all its out-edges carry the
	// same payload (one broadcast transfer group per producer).
	outValues := make([]int, n)
	for i := 0; i < n-1; i++ {
		id := topology.CellID(i)
		f := feats[rng.Intn(len(feats))]
		g.Cells = append(g.Cells, topology.Cell{
			ID:        id,
			Name:      f.String(),
			Role:      topology.RoleFeature,
			Spec:      celllib.Spec{Kind: celllib.KindFeature, Feat: f, N: segLen},
			OutValues: 1,
		})
		outValues[i] = 1 + rng.Intn(4)
		if i < readers {
			g.Edges = append(g.Edges, topology.Edge{
				From: topology.SourceID, To: id, Class: topology.PayloadRaw,
				Values: segLen, Bits: g.SourceBits,
			})
			continue
		}
		// One or two inputs from strictly earlier cells.
		ins := 1 + rng.Intn(2)
		seen := map[int]bool{}
		for j := 0; j < ins; j++ {
			from := rng.Intn(i)
			if seen[from] {
				continue
			}
			seen[from] = true
			g.Edges = append(g.Edges, topology.Edge{
				From: topology.CellID(from), To: id, Class: topology.PayloadValue,
				Values: outValues[from], Bits: int64(outValues[from]) * wireless.ValueBits,
			})
		}
	}
	// Terminal fusion cell fed by a random non-empty subset of the rest.
	out := topology.CellID(n - 1)
	var feeds []int
	for i := 0; i < n-1; i++ {
		if rng.Float64() < 0.5 {
			feeds = append(feeds, i)
		}
	}
	if len(feeds) == 0 {
		feeds = []int{n - 2}
	}
	g.Cells = append(g.Cells, topology.Cell{
		ID:   out,
		Name: "Fusion",
		Role: topology.RoleFusion,
		Spec: celllib.Spec{Kind: celllib.KindFusion, Bases: len(feeds)},
	})
	for _, from := range feeds {
		g.Edges = append(g.Edges, topology.Edge{
			From: topology.CellID(from), To: out, Class: topology.PayloadValue,
			Values: outValues[from], Bits: int64(outValues[from]) * wireless.ValueBits,
		})
	}
	g.Output = out
	return g
}

// tinyChain returns k tier specs with geometrically falling energy
// weights (top tier free) and k-1 hops cycling through the calibrated
// wireless models — a deterministic multi-tier chain for the batteries.
func tinyChain(k int) ([]TierSpec, []Hop) {
	tiers := make([]TierSpec, k)
	for t := 0; t < k; t++ {
		tiers[t] = TierSpec{
			Name:         string(rune('a' + t)),
			ComputeScale: math.Pow(0.5, float64(t)),
			EnergyWeight: math.Pow(0.05, float64(t)),
		}
	}
	tiers[k-1].EnergyWeight = 0
	models := wireless.Models()
	hops := make([]Hop, k-1)
	for h := range hops {
		hops[h] = Hop{Link: models[h%len(models)], BandwidthScale: 1}
	}
	return tiers, hops
}

// tinyTiered characterizes g and wraps it in a k-tier problem.
func tinyTiered(g *topology.Graph, k int) (*TieredProblem, error) {
	hw := sensornode.Characterize(g, celllib.P90)
	tiers, hops := tinyChain(k)
	return (&Problem{Graph: g, HW: hw, SensingEnergy: 1e-6}).Tiered(tiers, hops)
}
