package adaptive

import (
	"math"
	"testing"

	"xpro/internal/partition"
)

// SetFloorOracle installs fn as the hook run on every evaluation the
// energy floor answers, until t ends. Tests using it must not run in
// parallel with other controller tests.
func SetFloorOracle(t testing.TB, fn func(c *Controller, prob *partition.Problem, activeE float64)) {
	testHookFloorCertified = fn
	t.Cleanup(func() { testHookFloorCertified = nil })
}

// Sweep runs the full re-pricing path the floor stands in for: the
// generator, the in-sensor check and the swap test.
func (c *Controller) Sweep(prob *partition.Problem, activeE float64) (partition.Placement, float64) {
	return c.sweep(prob, activeE)
}

// MemoFloor is the memo's certified lower bound on M(f), -Inf when no
// memoized point bounds f: for every f before the first floor check,
// and for no f ≥ 1 after it, which anchors the memo at f = 1.
func (c *Controller) MemoFloor(f float64) float64 {
	lo, _, _ := c.memoFloor(f)
	return lo
}

// MemoPoints is the number of solved points the floor memo holds.
func (c *Controller) MemoPoints() int { return len(c.floors) }

// SolveFloor solves M(f) under prob, memoizes it, and returns the
// certified lower bound stored for f.
func (c *Controller) SolveFloor(prob *partition.Problem, f float64) float64 {
	c.floorClears(prob, f, math.Inf(1))
	return c.MemoFloor(f)
}
