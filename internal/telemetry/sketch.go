package telemetry

import (
	"math"
	"sort"
)

// Sketch is a mergeable streaming quantile sketch: a fixed-depth
// compactor hierarchy (the deterministic cousin of KLL / fixed-depth
// CKMS). Values stream into a level-0 buffer; when a level overflows
// its fixed capacity it is sorted and every other element is promoted
// to the next level with doubled weight, alternating the starting
// parity so successive compactions cancel each other's rank bias.
//
// Properties the SLO layer leans on:
//
//   - Bounded memory: at most K items per level, ~log2(n/K) levels.
//   - Deterministic: the same value stream produces the same sketch,
//     so seeded soaks replay bit-identically.
//   - Mergeable: Merge folds another sketch in level-by-level, and
//     sketch(a)+sketch(b) agrees with sketch(a‖b) within the rank
//     error bound — fleet-wide quantiles are per-engine sketches
//     merged at query time.
//   - Accurate: empirical rank error at K=512 stays well under 1% of n
//     for 1e5 observations (pinned by TestSketchRankError).
//
// A Sketch is not safe for concurrent use; Quantile wraps it with a
// mutex. The zero value is not usable; construct with NewSketch.
type Sketch struct {
	k      int
	levels [][]float64 // levels[h] items carry weight 1<<h
	parity []bool      // next compaction's promotion offset per level
	count  uint64      // observations (not weight: exact Add count)
	sum    float64
	min    float64
	max    float64
}

// DefaultSketchK is the per-level item capacity used when a caller
// does not choose one: rank error ≲ 0.3% of n at 1e5 observations,
// ~40 KiB of float64s fully loaded.
const DefaultSketchK = 512

// NewSketch creates an empty sketch with per-level capacity k
// (non-positive k takes DefaultSketchK). Levels start empty and grow as
// items arrive, so a sketch holds memory for what it has seen.
func NewSketch(k int) *Sketch {
	if k <= 0 {
		k = DefaultSketchK
	}
	if k < 8 {
		k = 8
	}
	return &Sketch{
		k:      k,
		levels: [][]float64{nil},
		parity: []bool{false},
		min:    math.Inf(1),
		max:    math.Inf(-1),
	}
}

// Add records one observation. NaN is ignored.
func (s *Sketch) Add(v float64) {
	if s == nil || math.IsNaN(v) {
		return
	}
	s.count++
	s.sum += v
	if v < s.min {
		s.min = v
	}
	if v > s.max {
		s.max = v
	}
	s.levels[0] = append(s.levels[0], v)
	if len(s.levels[0]) > s.k {
		s.compact()
	}
}

// compact walks the levels bottom-up, halving any that overflow.
func (s *Sketch) compact() {
	for h := 0; h < len(s.levels); h++ {
		if len(s.levels[h]) <= s.k {
			continue
		}
		lv := s.levels[h]
		sort.Float64s(lv)
		off := 0
		if s.parity[h] {
			off = 1
		}
		s.parity[h] = !s.parity[h]
		if h+1 == len(s.levels) {
			s.levels = append(s.levels, nil)
			s.parity = append(s.parity, false)
		}
		for i := off; i < len(lv); i += 2 {
			s.levels[h+1] = append(s.levels[h+1], lv[i])
		}
		s.levels[h] = lv[:0]
	}
}

// Merge folds other into s level-by-level. Both sketches keep their
// own items' weights, so merging preserves each side's rank evidence;
// the result agrees with a sketch of the concatenated stream within
// the rank error bound. other is not modified. Merging a nil or empty
// sketch is a no-op.
func (s *Sketch) Merge(other *Sketch) {
	if s == nil || other == nil || other.count == 0 {
		return
	}
	for h := range other.levels {
		if len(other.levels[h]) == 0 {
			continue
		}
		for h >= len(s.levels) {
			s.levels = append(s.levels, nil)
			s.parity = append(s.parity, false)
		}
		s.levels[h] = append(s.levels[h], other.levels[h]...)
	}
	s.count += other.count
	s.sum += other.sum
	if other.min < s.min {
		s.min = other.min
	}
	if other.max > s.max {
		s.max = other.max
	}
	s.compact()
}

// Clone returns a deep copy, so callers can merge into a scratch
// sketch without mutating the live one.
func (s *Sketch) Clone() *Sketch {
	if s == nil {
		return nil
	}
	c := &Sketch{k: s.k, count: s.count, sum: s.sum, min: s.min, max: s.max}
	c.levels = make([][]float64, len(s.levels))
	c.parity = append([]bool(nil), s.parity...)
	for h := range s.levels {
		buf := make([]float64, len(s.levels[h]), s.k+1)
		copy(buf, s.levels[h])
		c.levels[h] = buf
	}
	return c
}

// Count returns the number of observations.
func (s *Sketch) Count() uint64 {
	if s == nil {
		return 0
	}
	return s.count
}

// Sum returns the exact sum of all observations.
func (s *Sketch) Sum() float64 {
	if s == nil {
		return 0
	}
	return s.sum
}

// Min and Max return the exact observed extremes (0 when empty).
func (s *Sketch) Min() float64 {
	if s == nil || s.count == 0 {
		return 0
	}
	return s.min
}

func (s *Sketch) Max() float64 {
	if s == nil || s.count == 0 {
		return 0
	}
	return s.max
}

// Reset empties the sketch for reuse, keeping its capacity.
func (s *Sketch) Reset() {
	if s == nil {
		return
	}
	for h := range s.levels {
		s.levels[h] = s.levels[h][:0]
		s.parity[h] = false
	}
	s.count, s.sum = 0, 0
	s.min, s.max = math.Inf(1), math.Inf(-1)
}

// weighted is one retained item with its level weight.
type weighted struct {
	v float64
	w uint64
}

// items collects the retained items into dst (reused when capacious),
// sorted by value, and returns them with the total weight.
func (s *Sketch) items(dst []weighted) ([]weighted, uint64) {
	dst = dst[:0]
	var total uint64
	for h := range s.levels {
		w := uint64(1) << uint(h)
		for _, v := range s.levels[h] {
			dst = append(dst, weighted{v: v, w: w})
			total += w
		}
	}
	sort.Slice(dst, func(i, j int) bool { return dst[i].v < dst[j].v })
	return dst, total
}

// Quantile returns the estimated q-quantile (q clamped to [0,1]).
// An empty sketch returns 0.
func (s *Sketch) Quantile(q float64) float64 {
	if s == nil || s.count == 0 {
		return 0
	}
	return s.quantileInto(nil, q)
}

// quantileInto is Quantile with a caller-owned scratch buffer, so
// repeated polling does not re-allocate.
func (s *Sketch) quantileInto(scratch []weighted, q float64) float64 {
	if s.count == 0 {
		return 0
	}
	switch {
	case math.IsNaN(q) || q <= 0:
		return s.min
	case q >= 1:
		return s.max
	}
	it, total := s.items(scratch)
	target := q * float64(total)
	var cum float64
	for _, x := range it {
		cum += float64(x.w)
		if cum >= target {
			return x.v
		}
	}
	return s.max
}

// Quantiles evaluates several quantiles in one pass over the retained
// items, appending to out.
func (s *Sketch) Quantiles(qs []float64, out []float64) []float64 {
	if s == nil || s.count == 0 {
		for range qs {
			out = append(out, 0)
		}
		return out
	}
	var scratch []weighted
	for _, q := range qs {
		out = append(out, s.quantileInto(scratch, q))
	}
	return out
}

// retained returns the number of items currently held (for tests and
// occupancy reporting).
func (s *Sketch) retained() int {
	n := 0
	for h := range s.levels {
		n += len(s.levels[h])
	}
	return n
}
