package maxflow

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestClassicNetwork(t *testing.T) {
	// CLRS-style example: max flow 23.
	g := New(6)
	s, t0 := 0, 5
	g.AddEdge(0, 1, 16)
	g.AddEdge(0, 2, 13)
	g.AddEdge(1, 2, 10)
	g.AddEdge(2, 1, 4)
	g.AddEdge(1, 3, 12)
	g.AddEdge(3, 2, 9)
	g.AddEdge(2, 4, 14)
	g.AddEdge(4, 3, 7)
	g.AddEdge(3, t0, 20)
	g.AddEdge(4, t0, 4)
	if got := g.MaxFlow(s, t0); math.Abs(got-23) > 1e-9 {
		t.Errorf("max flow = %v, want 23", got)
	}
}

func TestSingleEdge(t *testing.T) {
	g := New(2)
	g.AddEdge(0, 1, 7.5)
	if got := g.MaxFlow(0, 1); got != 7.5 {
		t.Errorf("max flow = %v, want 7.5", got)
	}
}

func TestDisconnected(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1, 5)
	if got := g.MaxFlow(0, 2); got != 0 {
		t.Errorf("max flow = %v, want 0", got)
	}
}

func TestSameSourceSink(t *testing.T) {
	g := New(2)
	g.AddEdge(0, 1, 5)
	if g.MaxFlow(0, 0) != 0 {
		t.Error("s==t flow should be 0")
	}
}

func TestMinCutPartition(t *testing.T) {
	// Two parallel paths with bottlenecks 3 and 4: cut = 7.
	g := New(6)
	g.AddEdge(0, 1, 10)
	g.AddEdge(1, 2, 3) // bottleneck A
	g.AddEdge(2, 5, 10)
	g.AddEdge(0, 3, 10)
	g.AddEdge(3, 4, 4) // bottleneck B
	g.AddEdge(4, 5, 10)
	val, side, cut := g.MinCut(0, 5)
	if math.Abs(val-7) > 1e-9 {
		t.Fatalf("cut value = %v, want 7", val)
	}
	if !side[0] || side[5] {
		t.Fatal("source/sink on wrong sides")
	}
	if len(cut) != 2 {
		t.Fatalf("cut edges = %d, want 2", len(cut))
	}
	var total float64
	for _, ei := range cut {
		total += g.Edge(ei).Cap
	}
	if math.Abs(total-val) > 1e-9 {
		t.Errorf("cut edge capacities %v != flow %v", total, val)
	}
	if cv := g.CutValue(side); math.Abs(cv-val) > 1e-9 {
		t.Errorf("CutValue = %v, want %v", cv, val)
	}
}

func TestInfiniteEdgeNeverCut(t *testing.T) {
	// s → a (10), s → b (1); a —∞→ b; b → t (2); a → t (3).
	// The ∞ edge forces the min cut to avoid separating a from b's side.
	g := New(4)
	g.AddEdge(0, 1, 10)
	g.AddEdge(0, 2, 1)
	g.AddEdge(1, 2, Inf)
	g.AddEdge(2, 3, 2)
	g.AddEdge(1, 3, 3)
	val, side, cut := g.MinCut(0, 3)
	if val >= Inf/2 {
		t.Fatal("cut should be finite")
	}
	for _, ei := range cut {
		if g.Edge(ei).Cap >= Inf/2 {
			t.Error("infinite edge appears in min cut")
		}
	}
	// a and b must end on the same side or a on the sink side.
	if side[1] && !side[2] {
		t.Error("grouped constraint violated: a on source side, b on sink side")
	}
}

func TestResetAndSetCap(t *testing.T) {
	g := New(2)
	e := g.AddEdge(0, 1, 5)
	if g.MaxFlow(0, 1) != 5 {
		t.Fatal("first solve wrong")
	}
	g.SetCap(e, 9)
	g.Reset()
	if got := g.MaxFlow(0, 1); got != 9 {
		t.Errorf("after SetCap+Reset, flow = %v, want 9", got)
	}
}

// SetCap + Reset re-solves one graph as if it were built afresh: on
// random graphs whose capacities are re-priced many times, some to 0
// and back and some to Inf, every re-solve returns exactly the flow
// value and source side of a freshly built graph with the same edges,
// through both Cut and MinCut.
func TestSetCapResetMatchesFreshGraph(t *testing.T) {
	type edge struct {
		from, to int
		cap      float64
	}
	randomCap := func(rng *rand.Rand) float64 {
		switch rng.Intn(8) {
		case 0:
			return 0
		case 1:
			return Inf
		case 2:
			return float64(1 + rng.Intn(9))
		}
		return rng.Float64() * math.Pow(10, -float64(rng.Intn(10)))
	}
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(18)
		var es []edge
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if u != v && rng.Float64() < 0.3 {
					es = append(es, edge{u, v, randomCap(rng)})
				}
			}
		}
		g := New(n)
		idx := make([]int, len(es))
		for i, e := range es {
			idx[i] = g.AddEdge(e.from, e.to, e.cap)
		}
		s, tk := 0, n-1
		for round := 0; round < 12; round++ {
			if round > 0 {
				for i := range es {
					if rng.Float64() < 0.4 {
						es[i].cap = randomCap(rng)
						g.SetCap(idx[i], es[i].cap)
					}
				}
				g.Reset()
			}
			fresh := New(n)
			for _, e := range es {
				fresh.AddEdge(e.from, e.to, e.cap)
			}
			want, wantSide, wantCut := fresh.MinCut(s, tk)
			var got float64
			var side []bool
			if round%2 == 0 {
				got, side = g.Cut(s, tk)
			} else {
				var cut []int
				got, side, cut = g.MinCut(s, tk)
				if !reflect.DeepEqual(cut, wantCut) {
					t.Fatalf("seed %d round %d: cut edges %v, fresh graph %v", seed, round, cut, wantCut)
				}
			}
			if got != want {
				t.Fatalf("seed %d round %d: re-solved flow %v, fresh graph %v", seed, round, got, want)
			}
			if !reflect.DeepEqual(side, wantSide) {
				t.Fatalf("seed %d round %d: re-solved source side %v, fresh graph %v", seed, round, side, wantSide)
			}
		}
	}
}

// TestAddEdgeAfterSolveMatchesFreshGraph: edges added after a solve
// join the adjacency in AddEdge order, so a Reset and re-solve returns
// bit for bit what a fresh graph with all the edges, added in the same
// order, returns.
func TestAddEdgeAfterSolveMatchesFreshGraph(t *testing.T) {
	type edge struct {
		from, to int
		cap      float64
	}
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(18)
		g := New(n)
		var es []edge
		s, tk := 0, n-1
		for round := 0; round < 6; round++ {
			for k := rng.Intn(3 * n); k > 0; k-- {
				e := edge{rng.Intn(n), rng.Intn(n), float64(rng.Intn(10)) + rng.Float64()}
				if rng.Intn(8) == 0 {
					e.cap = Inf
				}
				es = append(es, e)
				g.AddEdge(e.from, e.to, e.cap)
			}
			g.Reset()
			fresh := New(n)
			for _, e := range es {
				fresh.AddEdge(e.from, e.to, e.cap)
			}
			want, wantSide, wantCut := fresh.MinCut(s, tk)
			got, side, cut := g.MinCut(s, tk)
			if got != want || !reflect.DeepEqual(side, wantSide) || !reflect.DeepEqual(cut, wantCut) {
				t.Fatalf("seed %d round %d: re-solved (%v, %v, %v) after AddEdge, fresh graph (%v, %v, %v)",
					seed, round, got, side, cut, want, wantSide, wantCut)
			}
			for i := 0; i < 2*len(es); i++ {
				if g.Edge(i) != fresh.Edge(i) {
					t.Fatalf("seed %d round %d: edge %d carries %+v, fresh graph %+v", seed, round, i, g.Edge(i), fresh.Edge(i))
				}
			}
		}
	}
}

func TestPanics(t *testing.T) {
	assertPanics := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	assertPanics("negative nodes", func() { New(-1) })
	assertPanics("edge out of range", func() { New(2).AddEdge(0, 5, 1) })
	assertPanics("negative capacity", func() { New(2).AddEdge(0, 1, -1) })
	assertPanics("negative SetCap", func() {
		g := New(2)
		e := g.AddEdge(0, 1, 1)
		g.SetCap(e, -2)
	})
}

// randomGraph builds a random layered network for property testing.
func randomGraph(rng *rand.Rand) (*Graph, int, int) {
	n := 4 + rng.Intn(12)
	g := New(n)
	s, t := 0, n-1
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j && rng.Float64() < 0.35 {
				g.AddEdge(i, j, float64(1+rng.Intn(20)))
			}
		}
	}
	return g, s, t
}

// Property: max-flow equals min-cut (strong duality), and the cut edges
// sum to the flow value.
func TestQuickMaxFlowMinCutDuality(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, s, tk := randomGraph(rng)
		val, side, cut := g.MinCut(s, tk)
		if side[tk] || !side[s] {
			return false
		}
		var total float64
		for _, ei := range cut {
			e := g.Edge(ei)
			total += e.Cap
			if !side[e.From] || side[e.To] {
				return false
			}
		}
		return math.Abs(total-val) < 1e-6 && math.Abs(g.CutValue(side)-val) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Property: flow conservation holds at every interior node.
func TestQuickFlowConservation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, s, tk := randomGraph(rng)
		g.MaxFlow(s, tk)
		net := make([]float64, g.N())
		for i := 0; ; i += 2 {
			if i >= len(g.edges) {
				break
			}
			e := g.edges[i]
			net[e.From] -= e.Flow
			net[e.To] += e.Flow
			if e.Flow < -1e-9 || e.Flow > e.Cap+1e-9 {
				return false // capacity constraint violated
			}
		}
		for v := 0; v < g.N(); v++ {
			if v == s || v == tk {
				continue
			}
			if math.Abs(net[v]) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Property: the min cut is no larger than any single-side cut
// ({s} alone, or everything-but-t).
func TestQuickMinCutIsMinimal(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, s, tk := randomGraph(rng)
		val, _, _ := g.MinCut(s, tk)
		onlyS := make([]bool, g.N())
		onlyS[s] = true
		allButT := make([]bool, g.N())
		for i := range allButT {
			allButT[i] = i != tk
		}
		return val <= g.CutValue(onlyS)+1e-6 && val <= g.CutValue(allButT)+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func BenchmarkMaxFlow50(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	n := 50
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		g := New(n)
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if u != v && rng.Float64() < 0.2 {
					g.AddEdge(u, v, float64(1+rng.Intn(50)))
				}
			}
		}
		b.StartTimer()
		g.MaxFlow(0, n-1)
	}
}
