// Package dwt implements the discrete wavelet transform used by the XPro
// generic classification framework (§2.1).
//
// The paper extracts statistical features on multiple levels of the DWT
// domain: for the 128-sample biosignal segments of the evaluation, a
// 5-level decomposition yields detail lengths 64, 32, 16, 8 and 4 (§4.4;
// the 5th level additionally has a 4-sample approximation, which the
// paper counts as a second 4-sample segment).
//
// Two wavelet families are provided: Haar (the hardware-cheapest filter,
// used for the in-sensor functional cells) and Daubechies-4 (a software
// extension on the aggregator side). Both support forward and inverse
// transforms; the inverse exists to support perfect-reconstruction
// property tests, not the classification data path.
package dwt

import (
	"fmt"
	"math"

	"xpro/internal/fixed"
)

// Wavelet identifies a filter family.
type Wavelet int

const (
	// Haar is the 2-tap Haar wavelet.
	Haar Wavelet = iota
	// DB4 is the 4-tap Daubechies wavelet.
	DB4
)

func (w Wavelet) String() string {
	switch w {
	case Haar:
		return "haar"
	case DB4:
		return "db4"
	default:
		return fmt.Sprintf("Wavelet(%d)", int(w))
	}
}

// The analysis filter pairs, built once: the low-pass filter and its
// quadrature mirror hi[k] = (−1)^k · lo[L−1−k].
var (
	haarLo = []float64{1 / math.Sqrt2, 1 / math.Sqrt2}
	haarHi = mirror(haarLo)
	db4Lo  = func() []float64 {
		s3 := math.Sqrt(3)
		d := 4 * math.Sqrt2
		return []float64{(1 + s3) / d, (3 + s3) / d, (3 - s3) / d, (1 - s3) / d}
	}()
	db4Hi = mirror(db4Lo)
)

func mirror(lo []float64) []float64 {
	hi := make([]float64, len(lo))
	for k := range lo {
		hi[k] = lo[len(lo)-1-k]
		if k%2 == 1 {
			hi[k] = -hi[k]
		}
	}
	return hi
}

// filters returns the analysis low-pass and high-pass filters for w.
// The slices are shared: callers must not modify them.
func (w Wavelet) filters() (lo, hi []float64) {
	if w == DB4 {
		return db4Lo, db4Hi
	}
	return haarLo, haarHi
}

// Step performs one analysis step on signal x, returning the
// approximation (low-pass) and detail (high-pass) half-length outputs.
// len(x) must be even and at least the filter length; the signal is
// extended periodically, keeping the transform orthonormal.
func Step(w Wavelet, x []float64) (approx, detail []float64, err error) {
	approx, detail = make([]float64, len(x)/2), make([]float64, len(x)/2)
	if err := StepInto(w, approx, detail, x); err != nil {
		return nil, nil, err
	}
	return approx, detail, nil
}

// StepInto is Step writing into caller-owned outputs, each len(x)/2
// long and neither overlapping x.
func StepInto(w Wavelet, approx, detail, x []float64) error {
	lo, hi := w.filters()
	n := len(x)
	if n < len(lo) {
		return fmt.Errorf("dwt: signal length %d shorter than %s filter length %d", n, w, len(lo))
	}
	if n%2 != 0 {
		return fmt.Errorf("dwt: signal length %d is odd", n)
	}
	half := n / 2
	if len(approx) != half || len(detail) != half {
		return fmt.Errorf("dwt: outputs of length %d and %d for a %d-sample signal", len(approx), len(detail), n)
	}
	for i := 0; i < half; i++ {
		var a, d float64
		for k := 0; k < len(lo); k++ {
			v := x[(2*i+k)%n]
			a += lo[k] * v
			d += hi[k] * v
		}
		approx[i] = a
		detail[i] = d
	}
	return nil
}

// InverseStep reconstructs the even-length signal from one analysis step.
func InverseStep(w Wavelet, approx, detail []float64) ([]float64, error) {
	if len(approx) != len(detail) {
		return nil, fmt.Errorf("dwt: approx length %d != detail length %d", len(approx), len(detail))
	}
	lo, hi := w.filters()
	half := len(approx)
	n := 2 * half
	if n < len(lo) {
		return nil, fmt.Errorf("dwt: output length %d shorter than %s filter length %d", n, w, len(lo))
	}
	x := make([]float64, n)
	// Transpose of the periodic analysis operator (orthonormal ⇒ inverse).
	for i := 0; i < half; i++ {
		for k := 0; k < len(lo); k++ {
			x[(2*i+k)%n] += lo[k]*approx[i] + hi[k]*detail[i]
		}
	}
	return x, nil
}

// Decomposition is a multi-level DWT of a signal segment.
type Decomposition struct {
	Wavelet Wavelet
	// Details[l] is the detail (high-pass) coefficient vector of level
	// l+1; for a 128-sample input with 5 levels the lengths are
	// 64, 32, 16, 8, 4.
	Details [][]float64
	// Approx is the final approximation vector (length 4 for the
	// evaluation configuration) — the paper's "second 4-sample segment"
	// of level 5.
	Approx []float64
}

// Levels returns the number of decomposition levels.
func (d *Decomposition) Levels() int { return len(d.Details) }

// Band returns the i-th band in XPro's cell ordering: bands 0..L−1 are
// details of levels 1..L and band L is the final approximation.
func (d *Decomposition) Band(i int) []float64 {
	if i < len(d.Details) {
		return d.Details[i]
	}
	return d.Approx
}

// NumBands returns the number of bands (levels + 1).
func (d *Decomposition) NumBands() int { return len(d.Details) + 1 }

// Decompose computes a levels-deep DWT of x. The signal length must be
// divisible by 2^levels and each intermediate length must be at least the
// filter length.
func Decompose(w Wavelet, x []float64, levels int) (*Decomposition, error) {
	if levels < 1 {
		return nil, fmt.Errorf("dwt: levels must be ≥ 1, got %d", levels)
	}
	if len(x)%(1<<uint(levels)) != 0 {
		return nil, fmt.Errorf("dwt: length %d not divisible by 2^%d", len(x), levels)
	}
	cur := append([]float64(nil), x...)
	dec := &Decomposition{Wavelet: w, Details: make([][]float64, 0, levels)}
	for l := 0; l < levels; l++ {
		a, d, err := Step(w, cur)
		if err != nil {
			return nil, fmt.Errorf("dwt: level %d: %w", l+1, err)
		}
		dec.Details = append(dec.Details, d)
		cur = a
	}
	dec.Approx = cur
	return dec, nil
}

// Reconstruct inverts a Decomposition back to the original signal.
func Reconstruct(dec *Decomposition) ([]float64, error) {
	cur := append([]float64(nil), dec.Approx...)
	for l := len(dec.Details) - 1; l >= 0; l-- {
		x, err := InverseStep(dec.Wavelet, cur, dec.Details[l])
		if err != nil {
			return nil, fmt.Errorf("dwt: inverse level %d: %w", l+1, err)
		}
		cur = x
	}
	return cur, nil
}

// MaxLevels returns the deepest decomposition supported for a signal of
// length n with wavelet w (each level halves the length; it must stay at
// least the filter length and even).
func MaxLevels(w Wavelet, n int) int {
	lo, _ := w.filters()
	levels := 0
	for n%2 == 0 && n >= 2*len(lo) {
		n /= 2
		levels++
	}
	return levels
}

// StepFixed performs one Haar analysis step in Q16.16 fixed point — the
// arithmetic the in-sensor DWT functional cell implements. Only Haar is
// supported in hardware (2-tap filter: one add, one subtract, one scale).
func StepFixed(x []fixed.Num) (approx, detail []fixed.Num, err error) {
	approx, detail = make([]fixed.Num, len(x)/2), make([]fixed.Num, len(x)/2)
	if err := StepFixedInto(approx, detail, x); err != nil {
		return nil, nil, err
	}
	return approx, detail, nil
}

// StepFixedInto is StepFixed writing into caller-owned outputs, each
// len(x)/2 long and neither overlapping x.
func StepFixedInto(approx, detail, x []fixed.Num) error {
	n := len(x)
	if n < 2 || n%2 != 0 {
		return fmt.Errorf("dwt: fixed-point step needs even length ≥ 2, got %d", n)
	}
	half := n / 2
	if len(approx) != half || len(detail) != half {
		return fmt.Errorf("dwt: outputs of length %d and %d for a %d-sample signal", len(approx), len(detail), n)
	}
	// 1/√2 in Q16.16.
	r := fixed.FromFloat(1 / math.Sqrt2)
	for i := 0; i < half; i++ {
		a := fixed.Add(x[2*i], x[2*i+1])
		d := fixed.Sub(x[2*i], x[2*i+1])
		approx[i] = fixed.Mul(a, r)
		detail[i] = fixed.Mul(d, r)
	}
	return nil
}

// DecomposeFixed computes a levels-deep Haar DWT in fixed point.
func DecomposeFixed(x []fixed.Num, levels int) (details [][]fixed.Num, approx []fixed.Num, err error) {
	if levels < 1 {
		return nil, nil, fmt.Errorf("dwt: levels must be ≥ 1, got %d", levels)
	}
	if len(x)%(1<<uint(levels)) != 0 {
		return nil, nil, fmt.Errorf("dwt: length %d not divisible by 2^%d", len(x), levels)
	}
	cur := append([]fixed.Num(nil), x...)
	for l := 0; l < levels; l++ {
		a, d, err := StepFixed(cur)
		if err != nil {
			return nil, nil, fmt.Errorf("dwt: fixed level %d: %w", l+1, err)
		}
		details = append(details, d)
		cur = a
	}
	return details, cur, nil
}
