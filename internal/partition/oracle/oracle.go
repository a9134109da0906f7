// Package oracle exhaustively enumerates cell-to-tier assignments for
// small placement problems. It is the ground-truth side of the
// partitioning batteries: on DAGs small enough to brute-force, the
// min-cut solvers in internal/partition must match the optimum this
// package finds by visiting every feasible assignment. No production
// code calls it.
//
// The package is deliberately free of partition/topology imports, so it
// shares no code with the solvers it checks: problems are posed
// abstractly as n cells, k tiers, precedence edges (tier(u) ≤ tier(v),
// the "data flows downstream" monotonicity of an N-tier chain), and
// groups of cells pinned to one common tier (the grouped source readers
// of §3.2.2). Passing no edges enumerates the full, unconstrained
// assignment space — the legacy two-end exhaustive battery uses that
// mode, since the paper's s-t cut admits non-monotone placements.
package oracle

import (
	"fmt"
	"math"
)

// MaxAssignments bounds the enumeration space Enumerate will walk.
// k^units beyond this returns ErrTooLarge instead of spinning forever.
const MaxAssignments = 100_000_000

// ErrTooLarge reports an enumeration space beyond MaxAssignments.
var ErrTooLarge = fmt.Errorf("oracle: assignment space exceeds %d", MaxAssignments)

// Problem poses one enumeration: Cells cells assigned to Tiers tiers,
// subject to tier(u) ≤ tier(v) for every edge [u, v] and to every
// group's cells sharing one tier.
type Problem struct {
	Cells int
	Tiers int
	// Edges are monotone order constraints [from, to]. Nil enumerates
	// the unconstrained space.
	Edges [][2]int
	// Groups are sets of cells pinned to a common tier.
	Groups [][]int
}

// Validate checks the problem's structural sanity.
func (p *Problem) Validate() error {
	if p.Cells < 1 {
		return fmt.Errorf("oracle: %d cells", p.Cells)
	}
	if p.Tiers < 2 {
		return fmt.Errorf("oracle: %d tiers (need ≥ 2)", p.Tiers)
	}
	for _, e := range p.Edges {
		if e[0] < 0 || e[0] >= p.Cells || e[1] < 0 || e[1] >= p.Cells {
			return fmt.Errorf("oracle: edge %v outside %d cells", e, p.Cells)
		}
	}
	for _, g := range p.Groups {
		for _, c := range g {
			if c < 0 || c >= p.Cells {
				return fmt.Errorf("oracle: group cell %d outside %d cells", c, p.Cells)
			}
		}
	}
	return nil
}

// Space returns the raw assignment-space size k^units (before monotone
// pruning), as a float to survive overflow.
func (p *Problem) Space() float64 {
	return math.Pow(float64(p.Tiers), float64(p.countUnits()))
}

// countUnits returns the number of independently assignable units after
// group merging.
func (p *Problem) countUnits() int {
	uf := newUnionFind(p.Cells)
	for _, g := range p.Groups {
		for i := 1; i < len(g); i++ {
			uf.union(g[0], g[i])
		}
	}
	units := 0
	for i := 0; i < p.Cells; i++ {
		if uf.find(i) == i {
			units++
		}
	}
	return units
}

// Enumerate visits every feasible assignment in a fixed deterministic
// order (lexicographic over units in topological order, lowest tier
// first) and returns the number visited. visit receives a slice that is
// reused between calls — copy it to keep it — and may return false to
// stop early. A cyclic precedence graph or an oversized space errors.
func (p *Problem) Enumerate(visit func(assign []int) bool) (int64, error) {
	if err := p.Validate(); err != nil {
		return 0, err
	}
	if p.Space() > MaxAssignments {
		return 0, ErrTooLarge
	}

	// Merge groups into units.
	uf := newUnionFind(p.Cells)
	for _, g := range p.Groups {
		for i := 1; i < len(g); i++ {
			uf.union(g[0], g[i])
		}
	}
	unitOf := make([]int, p.Cells) // cell → dense unit index
	var unitCells [][]int          // unit → member cells
	rootUnit := make(map[int]int)
	for i := 0; i < p.Cells; i++ {
		r := uf.find(i)
		u, ok := rootUnit[r]
		if !ok {
			u = len(unitCells)
			rootUnit[r] = u
			unitCells = append(unitCells, nil)
		}
		unitOf[i] = u
		unitCells[u] = append(unitCells[u], i)
	}
	n := len(unitCells)

	// Unit-level precedence DAG (self-loops from intra-group edges are
	// vacuously satisfiable and dropped).
	succ := make([][]int, n)
	indeg := make([]int, n)
	seen := make(map[[2]int]bool)
	for _, e := range p.Edges {
		a, b := unitOf[e[0]], unitOf[e[1]]
		if a == b || seen[[2]int{a, b}] {
			continue
		}
		seen[[2]int{a, b}] = true
		succ[a] = append(succ[a], b)
		indeg[b]++
	}
	order, err := topoOrder(n, succ, indeg)
	if err != nil {
		return 0, err
	}
	// pred lists in unit order, for the lower-bound prune: a unit's
	// tier must be at least the max tier of its (already assigned)
	// predecessors.
	pred := make([][]int, n)
	for a, ss := range succ {
		for _, b := range ss {
			pred[b] = append(pred[b], a)
		}
	}

	tier := make([]int, n) // per unit
	assign := make([]int, p.Cells)
	var visited int64
	stopped := false

	var rec func(pos int)
	rec = func(pos int) {
		if stopped {
			return
		}
		if pos == n {
			for u, t := range tier {
				for _, c := range unitCells[u] {
					assign[c] = t
				}
			}
			visited++
			if !visit(assign) {
				stopped = true
			}
			return
		}
		u := order[pos]
		lo := 0
		for _, q := range pred[u] {
			if tier[q] > lo {
				lo = tier[q]
			}
		}
		for t := lo; t < p.Tiers; t++ {
			tier[u] = t
			rec(pos + 1)
			if stopped {
				return
			}
		}
	}
	rec(0)
	return visited, nil
}

// Result is the optimum found by Optimal.
type Result struct {
	// Assign maps each cell to its tier.
	Assign []int
	// Cost is cost(Assign).
	Cost float64
	// Visited counts the feasible assignments enumerated.
	Visited int64
}

// Optimal enumerates every feasible assignment and returns the first
// (in enumeration order) whose cost is strictly minimal — deterministic
// under cost ties. cost must be a pure function of the assignment.
func (p *Problem) Optimal(cost func(assign []int) float64) (Result, error) {
	best := Result{Cost: math.Inf(1)}
	visited, err := p.Enumerate(func(assign []int) bool {
		if c := cost(assign); c < best.Cost {
			best.Cost = c
			best.Assign = append(best.Assign[:0], assign...)
		}
		return true
	})
	if err != nil {
		return Result{}, err
	}
	if best.Assign == nil {
		return Result{}, fmt.Errorf("oracle: no feasible assignment (%d visited)", visited)
	}
	best.Visited = visited
	return best, nil
}

// topoOrder Kahn-sorts the unit DAG, erroring on cycles (which would
// make the precedence constraints unsatisfiable for any k).
func topoOrder(n int, succ [][]int, indeg []int) ([]int, error) {
	deg := append([]int(nil), indeg...)
	order := make([]int, 0, n)
	queue := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if deg[i] == 0 {
			queue = append(queue, i)
		}
	}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		order = append(order, u)
		for _, v := range succ[u] {
			deg[v]--
			if deg[v] == 0 {
				queue = append(queue, v)
			}
		}
	}
	if len(order) != n {
		return nil, fmt.Errorf("oracle: cyclic precedence constraints (%d of %d units ordered)", len(order), n)
	}
	return order, nil
}

type unionFind struct{ parent []int }

func newUnionFind(n int) *unionFind {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return &unionFind{parent: p}
}

func (u *unionFind) find(x int) int {
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]]
		x = u.parent[x]
	}
	return x
}

func (u *unionFind) union(a, b int) {
	ra, rb := u.find(a), u.find(b)
	if ra != rb {
		u.parent[ra] = rb
	}
}
