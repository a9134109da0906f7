// Package maxflow implements a max-flow/min-cut solver (Dinic's
// algorithm) on directed graphs with float64 capacities and support for
// effectively-infinite edges.
//
// The Automatic XPro Generator (§3.2) reduces functional-cell placement
// to a minimum s-t cut: after the cut, nodes reachable from the source
// in the residual graph form the in-sensor analytic part, the rest the
// in-aggregator part. The infinite edges implement the "grouped"
// constraint via the dummy source-data node D (Fig. 7).
//
// A Graph can be solved many times: SetCap re-prices edges in place and
// Reset clears the flow, and the solver keeps its scratch (BFS levels
// and queue, the DFS edge cursors, path and bottlenecks, the source
// side) between solves, so a re-solve through Cut allocates nothing.
// Building one allocates a few times, not once per edge: AddEdge only
// appends to the edge list, and the first solve after it lays every
// node's edges out in one contiguous adjacency array.
package maxflow

import (
	"fmt"
	"math"
)

// Inf is the capacity used for constraint edges that must never be cut.
const Inf = math.MaxFloat64 / 4

// eps guards float comparisons in the solver.
const eps = 1e-12

// Edge is one directed edge of the flow network.
type Edge struct {
	From, To int
	Cap      float64
	Flow     float64
}

// Graph is a flow network over nodes 0..N-1. AddEdge stores each edge
// at an even index and its residual reverse edge right after it, so the
// reverse of edge i is edge i^1.
type Graph struct {
	n     int
	edges []Edge
	// adj holds every node's edge indices contiguously, in AddEdge
	// order: node u's are adj[start[u]:start[u+1]]. The first solve
	// after an AddEdge lays it out (see layout).
	start, adj []int

	// Solver scratch, sized to n on the first solve and reused after.
	level, iter, queue, path []int
	avail                    []float64
	side                     []bool
}

// New creates a flow network with n nodes.
func New(n int) *Graph {
	if n < 0 {
		panic("maxflow: negative node count")
	}
	return &Graph{n: n}
}

// N returns the node count.
func (g *Graph) N() int { return g.n }

// AddEdge adds a directed edge with the given capacity and returns its
// index. Adding an edge with negative capacity panics — the s-t graph
// construction must map energies (always ≥ 0) to capacities.
func (g *Graph) AddEdge(from, to int, capacity float64) int {
	if from < 0 || from >= g.n || to < 0 || to >= g.n {
		panic(fmt.Sprintf("maxflow: edge (%d,%d) outside graph of %d nodes", from, to, g.n))
	}
	if capacity < 0 {
		panic(fmt.Sprintf("maxflow: negative capacity %v on edge (%d,%d)", capacity, from, to))
	}
	idx := len(g.edges)
	// The edge and its residual reverse edge with zero capacity.
	g.edges = append(g.edges, Edge{From: from, To: to, Cap: capacity}, Edge{From: to, To: from, Cap: 0})
	return idx
}

// Reset clears all flow, allowing the network to be solved again
// (e.g. after capacity updates via SetCap).
func (g *Graph) Reset() {
	for i := range g.edges {
		g.edges[i].Flow = 0
	}
}

// SetCap updates the capacity of edge idx, an index AddEdge returned.
// Only that edge changes: its residual reverse edge keeps capacity 0,
// and the flow already on either is left as it is, so Reset must be
// called before re-solving. After SetCap and Reset, a solve returns
// what a freshly built graph with the same edges, in the same order,
// would.
func (g *Graph) SetCap(idx int, capacity float64) {
	if capacity < 0 {
		panic(fmt.Sprintf("maxflow: negative capacity %v", capacity))
	}
	g.edges[idx].Cap = capacity
}

// layout builds the adjacency on the first solve, and rebuilds it when
// edges were added since (it holds one index per edge). A counting sort
// on each edge's tail node, filled in edge index order, lists every
// node's edges in the order AddEdge added them, and the searches visit
// them in that order: the cut depends on the order edges were added,
// never on when the adjacency was laid out.
func (g *Graph) layout() {
	if len(g.start) == g.n+1 && len(g.adj) == len(g.edges) {
		return
	}
	start := make([]int, g.n+1)
	for i := range g.edges {
		start[g.edges[i].From+1]++
	}
	for u := 0; u < g.n; u++ {
		start[u+1] += start[u]
	}
	adj := make([]int, len(g.edges))
	// start[u] serves as u's fill cursor and ends at u+1's first slot;
	// shifting the array one place right restores the offsets.
	for i := range g.edges {
		u := g.edges[i].From
		adj[start[u]] = i
		start[u]++
	}
	copy(start[1:], start[:g.n])
	start[0] = 0
	g.start, g.adj = start, adj
}

// out returns node u's edge indices.
func (g *Graph) out(u int) []int { return g.adj[g.start[u]:g.start[u+1]] }

// scratch lays out the adjacency when needed and sizes the solver's
// reusable buffers on the first solve.
func (g *Graph) scratch() {
	g.layout()
	if len(g.level) == g.n {
		return
	}
	g.level = make([]int, g.n)
	g.iter = make([]int, g.n)
	g.queue = make([]int, 0, g.n)
	g.path = make([]int, 0, g.n)
	g.avail = make([]float64, 0, g.n+1)
	g.side = make([]bool, g.n)
}

// MaxFlow computes the maximum s→t flow with Dinic's algorithm and
// returns its value. Flows are left on the edges for cut extraction.
func (g *Graph) MaxFlow(s, t int) float64 {
	if s == t {
		return 0
	}
	g.scratch()
	total := 0.0
	for g.bfs(s, t) {
		clear(g.iter)
		for {
			f := g.augment(s, t)
			if f <= eps {
				break
			}
			total += f
		}
	}
	return total
}

// bfs labels every node with its distance from s over residual edges
// and reports whether t is reachable.
func (g *Graph) bfs(s, t int) bool {
	level := g.level
	for i := range level {
		level[i] = -1
	}
	level[s] = 0
	queue := append(g.queue[:0], s)
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for _, ei := range g.out(u) {
			e := &g.edges[ei]
			if level[e.To] < 0 && e.Cap-e.Flow > eps {
				level[e.To] = level[u] + 1
				queue = append(queue, e.To)
			}
		}
	}
	g.queue = queue
	return level[t] >= 0
}

// augment pushes flow along one s→t path of the level graph and returns
// the amount, 0 when none is left. It is the depth-first search of
// Dinic's algorithm with an explicit path: each node's cursor iter[u]
// skips the edges already found to lead nowhere, and a successful push
// leaves the cursors where they are, so the next search retries the
// same edges first. avail[d] is the bottleneck of the path's first d
// edges, as the recursive search would have passed it down.
func (g *Graph) augment(s, t int) float64 {
	level, iter := g.level, g.iter
	path, avail := g.path[:0], append(g.avail[:0], math.Inf(1))
	u := s
	for {
		if u == t {
			if f := avail[len(path)]; f > eps {
				for _, ei := range path {
					g.edges[ei].Flow += f
					g.edges[ei^1].Flow -= f
				}
				g.path, g.avail = path, avail
				return f
			}
		} else {
			adj := g.out(u)
			for ; iter[u] < len(adj); iter[u]++ {
				e := &g.edges[adj[iter[u]]]
				if level[e.To] != level[u]+1 || e.Cap-e.Flow <= eps {
					continue
				}
				break
			}
			if iter[u] < len(adj) {
				ei := adj[iter[u]]
				e := &g.edges[ei]
				path = append(path, ei)
				avail = append(avail, math.Min(avail[len(avail)-1], e.Cap-e.Flow))
				u = e.To
				continue
			}
		}
		// Dead end: back up one edge and skip it.
		if len(path) == 0 {
			g.path, g.avail = path, avail
			return 0
		}
		u = g.edges[path[len(path)-1]].From
		path, avail = path[:len(path)-1], avail[:len(avail)-1]
		iter[u]++
	}
}

// Cut computes the minimum s-t cut and returns its value and the source
// side (sourceSide[v] == true ⇔ v reachable from s in the residual
// graph). sourceSide is the graph's own scratch: it is valid until the
// next solve and must not be modified. Cut is MinCut without the
// allocations, for callers that re-solve one graph.
func (g *Graph) Cut(s, t int) (value float64, sourceSide []bool) {
	value = g.MaxFlow(s, t)
	g.scratch()
	side := g.side
	clear(side)
	stack := append(g.queue[:0], s)
	side[s] = true
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, ei := range g.out(u) {
			e := &g.edges[ei]
			if !side[e.To] && e.Cap-e.Flow > eps {
				side[e.To] = true
				stack = append(stack, e.To)
			}
		}
	}
	g.queue = stack
	return value, side
}

// MinCut computes the minimum s-t cut. It returns the cut value, the
// set of nodes on the source side (sourceSide[v] == true ⇔ v reachable
// from s in the residual graph), and the indices of the cut edges. The
// returned slices belong to the caller.
func (g *Graph) MinCut(s, t int) (value float64, sourceSide []bool, cutEdges []int) {
	value, side := g.Cut(s, t)
	sourceSide = append([]bool(nil), side...)
	for i := 0; i < len(g.edges); i += 2 { // forward edges only
		e := g.edges[i]
		if sourceSide[e.From] && !sourceSide[e.To] && e.Cap > eps {
			cutEdges = append(cutEdges, i)
		}
	}
	return value, sourceSide, cutEdges
}

// CutValue returns the total capacity crossing the given partition
// (source side → sink side, forward edges only). It lets callers price
// arbitrary placements — e.g. the in-sensor / in-aggregator / trivial
// cuts — on the same graph used by the optimizer.
func (g *Graph) CutValue(sourceSide []bool) float64 {
	var total float64
	for i := 0; i < len(g.edges); i += 2 {
		e := g.edges[i]
		if sourceSide[e.From] && !sourceSide[e.To] {
			total += e.Cap
		}
	}
	return total
}
