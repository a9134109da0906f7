package telemetry

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// retained returns the number of items currently held.
func (s *Sketch) retained() int {
	n := 0
	for h := range s.levels {
		n += len(s.levels[h])
	}
	return n
}

// rankError returns |rank(est) - q*n| / n against the sorted exact
// sample: how far, as a fraction of the population, the estimate's
// true rank sits from the requested one.
func rankError(sorted []float64, q, est float64) float64 {
	n := len(sorted)
	// rank(est): number of samples <= est.
	r := sort.SearchFloat64s(sorted, math.Nextafter(est, math.Inf(1)))
	return math.Abs(float64(r)-q*float64(n)) / float64(n)
}

func sampleStreams(t *testing.T) map[string]func(r *rand.Rand, n int) []float64 {
	t.Helper()
	return map[string]func(r *rand.Rand, n int) []float64{
		"uniform": func(r *rand.Rand, n int) []float64 {
			out := make([]float64, n)
			for i := range out {
				out[i] = r.Float64()
			}
			return out
		},
		// Heavy-tailed: the shape latency distributions actually have.
		"lognormal": func(r *rand.Rand, n int) []float64 {
			out := make([]float64, n)
			for i := range out {
				out[i] = math.Exp(r.NormFloat64() * 1.5)
			}
			return out
		},
		// Sorted input is the adversarial case for compactor sketches.
		"ascending": func(_ *rand.Rand, n int) []float64 {
			out := make([]float64, n)
			for i := range out {
				out[i] = float64(i)
			}
			return out
		},
	}
}

// TestSketchRankError pins the acceptance bound: p50 and p99 estimates
// stay within 1% rank error of an exact sort on 1e5 observations, for
// uniform, heavy-tailed and adversarially sorted streams.
func TestSketchRankError(t *testing.T) {
	const n = 100_000
	quantiles := []float64{0.5, 0.9, 0.95, 0.99}
	for name, gen := range sampleStreams(t) {
		t.Run(name, func(t *testing.T) {
			r := rand.New(rand.NewSource(42))
			data := gen(r, n)
			s := NewSketch(0)
			for _, v := range data {
				s.Add(v)
			}
			sorted := append([]float64(nil), data...)
			sort.Float64s(sorted)
			for _, q := range quantiles {
				est := s.Quantile(q)
				if e := rankError(sorted, q, est); e > 0.01 {
					t.Errorf("q=%g: estimate %g has rank error %.4f > 1%%", q, est, e)
				}
			}
			if got, want := s.Count(), uint64(n); got != want {
				t.Errorf("Count() = %d, want %d", got, want)
			}
			if s.Min() != sorted[0] || s.Max() != sorted[n-1] {
				t.Errorf("Min/Max = %g/%g, want exact %g/%g", s.Min(), s.Max(), sorted[0], sorted[n-1])
			}
		})
	}
}

// TestSketchMergeAssociativity pins the fleet-aggregation property:
// sketch(a)+sketch(b) answers within tolerance of sketch(a‖b), and
// both stay within the rank-error bound of the exact combined sort.
func TestSketchMergeAssociativity(t *testing.T) {
	const n = 50_000
	r := rand.New(rand.NewSource(7))
	a := make([]float64, n)
	b := make([]float64, n)
	for i := range a {
		a[i] = math.Exp(r.NormFloat64()) // heavy-tailed
		b[i] = r.Float64() * 10          // different distribution per node
	}

	sa, sb, sab := NewSketch(0), NewSketch(0), NewSketch(0)
	for _, v := range a {
		sa.Add(v)
		sab.Add(v)
	}
	for _, v := range b {
		sb.Add(v)
		sab.Add(v)
	}
	merged := sa.Clone()
	merged.Merge(sb)

	if got, want := merged.Count(), uint64(2*n); got != want {
		t.Fatalf("merged Count() = %d, want %d", got, want)
	}
	if math.Abs(merged.Sum()-sab.Sum()) > 1e-6*math.Abs(sab.Sum()) {
		t.Fatalf("merged Sum() = %g, want %g", merged.Sum(), sab.Sum())
	}

	all := append(append([]float64(nil), a...), b...)
	sort.Float64s(all)
	for _, q := range []float64{0.5, 0.9, 0.99} {
		em, ec := merged.Quantile(q), sab.Quantile(q)
		if e := rankError(all, q, em); e > 0.01 {
			t.Errorf("q=%g: merged estimate %g has rank error %.4f > 1%%", q, em, e)
		}
		if e := rankError(all, q, ec); e > 0.01 {
			t.Errorf("q=%g: concatenated estimate %g has rank error %.4f > 1%%", q, ec, e)
		}
		// Merge vs concat must agree within twice the single-sketch
		// bound (each contributes its own rank error).
		if d := math.Abs(rankError(all, q, em) - rankError(all, q, ec)); d > 0.02 {
			t.Errorf("q=%g: merge/concat rank disagreement %.4f > 2%%", q, d)
		}
	}

	// Merging the empty/nil sketch is a no-op.
	before := merged.Quantile(0.5)
	merged.Merge(nil)
	merged.Merge(NewSketch(0))
	if merged.Quantile(0.5) != before || merged.Count() != uint64(2*n) {
		t.Error("merging nil/empty sketches changed the sketch")
	}
}

// TestSketchDeterminism: the same stream always yields the same
// retained items, so seeded soaks replay bit-identically.
func TestSketchDeterminism(t *testing.T) {
	build := func() *Sketch {
		s := NewSketch(64)
		r := rand.New(rand.NewSource(3))
		for i := 0; i < 20_000; i++ {
			s.Add(r.NormFloat64())
		}
		return s
	}
	s1, s2 := build(), build()
	for _, q := range []float64{0, 0.25, 0.5, 0.75, 0.99, 1} {
		if s1.Quantile(q) != s2.Quantile(q) {
			t.Fatalf("q=%g: replay diverged: %g vs %g", q, s1.Quantile(q), s2.Quantile(q))
		}
	}
	if s1.retained() != s2.retained() {
		t.Fatalf("retained items diverged: %d vs %d", s1.retained(), s2.retained())
	}
}

// presized builds a sketch as NewSketch did before its levels grew on
// demand, each level holding k+1 items from birth. It makes more levels
// up front than any stream below fills, so it never adds one.
func presized(k int) *Sketch {
	s := &Sketch{k: k, min: math.Inf(1), max: math.Inf(-1)}
	for h := 0; h < 24; h++ {
		s.levels = append(s.levels, make([]float64, 0, k+1))
		s.parity = append(s.parity, false)
	}
	return s
}

// Levels that grow on demand answer bit for bit what pre-sized levels
// answer, on seeded streams, through compactions and merges.
func TestSketchGrowthMatchesPresized(t *testing.T) {
	qs := []float64{0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999, 1}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for name, gen := range sampleStreams(t) {
		for _, k := range []int{8, DefaultSketchK} {
			for _, n := range []int{1, k, k + 1, 20*k + 7} {
				r := rand.New(rand.NewSource(int64(n)))
				grown, ref := NewSketch(k), presized(k)
				for _, v := range gen(r, n) {
					grown.Add(v)
					ref.Add(v)
				}
				for _, m := range []int{n/3 + 1, 2 * n} {
					g, p := NewSketch(k), presized(k)
					for _, v := range gen(r, m) {
						g.Add(v)
						p.Add(v)
					}
					grown.Merge(g)
					ref.Merge(p)
				}
				if grown.Count() != ref.Count() || !same(grown.Sum(), ref.Sum()) ||
					!same(grown.Min(), ref.Min()) || !same(grown.Max(), ref.Max()) ||
					grown.retained() != ref.retained() {
					t.Fatalf("%s k=%d n=%d: grown sketch diverged from the pre-sized one", name, k, n)
				}
				for _, q := range qs {
					if a, b := grown.Quantile(q), ref.Quantile(q); !same(a, b) {
						t.Fatalf("%s k=%d n=%d: Quantile(%g) = %g, pre-sized %g", name, k, n, q, a, b)
					}
				}
			}
		}
	}
}

// TestSketchBoundedMemory: retained items stay O(k log(n/k)).
func TestSketchBoundedMemory(t *testing.T) {
	s := NewSketch(64)
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 1_000_000; i++ {
		s.Add(r.Float64())
	}
	levels := len(s.levels)
	if max := levels * 65; s.retained() > max {
		t.Errorf("retained %d items across %d levels, want <= %d", s.retained(), levels, max)
	}
	if levels > 20 {
		t.Errorf("grew %d levels for 1e6 items at k=64, want <= 20", levels)
	}
}

func TestSketchEdgeCases(t *testing.T) {
	var nilS *Sketch
	nilS.Add(1)
	nilS.Merge(NewSketch(0))
	if nilS.Quantile(0.5) != 0 || nilS.Count() != 0 || nilS.Clone() != nil {
		t.Error("nil sketch is not a no-op")
	}

	s := NewSketch(8)
	if s.Quantile(0.5) != 0 || s.Min() != 0 || s.Max() != 0 {
		t.Error("empty sketch should report zeros")
	}
	s.Add(math.NaN())
	if s.Count() != 0 {
		t.Error("NaN was counted")
	}
	s.Add(5)
	for _, q := range []float64{0, 0.5, 1} {
		if got := s.Quantile(q); got != 5 {
			t.Errorf("single value: Quantile(%g) = %g, want 5", q, got)
		}
	}
	s.Reset()
	if s.Count() != 0 || s.Sum() != 0 || s.Quantile(0.5) != 0 {
		t.Error("Reset did not empty the sketch")
	}
	out := s.Quantiles([]float64{0.5, 0.9}, nil)
	if len(out) != 2 || out[0] != 0 || out[1] != 0 {
		t.Errorf("empty Quantiles = %v, want [0 0]", out)
	}
}
