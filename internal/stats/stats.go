// Package stats implements the eight hardware-friendly statistical
// features of the XPro generic classification framework (§2.1): maximal
// value, minimal value, mean, variance, standard deviation, zero-crossing
// count, skewness and kurtosis.
//
// Each feature exists in two implementations:
//
//   - float64, used by the in-aggregator analytic part (software on a
//     general-purpose CPU), and
//   - Q16.16 fixed point, used by the in-sensor analytic part
//     (specialized hardware, §4.4).
//
// The fixed-point standard deviation deliberately reuses the variance
// computation and adds only a square-root stage, mirroring the paper's
// functional-cell-level reuse rule (design rule 3, Fig. 5).
package stats

import (
	"fmt"
	"math"
)

// Feature identifies one of the eight statistical features.
type Feature int

const (
	Max Feature = iota
	Min
	Mean
	Var
	Std
	CZero
	Skew
	Kurt
	// NumFeatures is the size of the feature set.
	NumFeatures int = iota
)

// AllFeatures lists the features in their canonical order.
var AllFeatures = []Feature{Max, Min, Mean, Var, Std, CZero, Skew, Kurt}

func (f Feature) String() string {
	switch f {
	case Max:
		return "Max"
	case Min:
		return "Min"
	case Mean:
		return "Mean"
	case Var:
		return "Var"
	case Std:
		return "Std"
	case CZero:
		return "CZero"
	case Skew:
		return "Skew"
	case Kurt:
		return "Kurt"
	default:
		return fmt.Sprintf("Feature(%d)", int(f))
	}
}

// Compute evaluates feature f over segment x in float64.
// Empty segments yield 0 for every feature.
func Compute(f Feature, x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	switch f {
	case Max:
		return MaxValue(x)
	case Min:
		return MinValue(x)
	case Mean:
		return MeanValue(x)
	case Var:
		return Variance(x)
	case Std:
		return StdDev(x)
	case CZero:
		return float64(ZeroCrossings(x))
	case Skew:
		return Skewness(x)
	case Kurt:
		return Kurtosis(x)
	default:
		return 0
	}
}

// ComputeAll evaluates every feature over x, indexed by Feature.
func ComputeAll(x []float64) []float64 {
	out := make([]float64, NumFeatures)
	for _, f := range AllFeatures {
		out[f] = Compute(f, x)
	}
	return out
}

// MaxValue returns the maximum sample.
func MaxValue(x []float64) float64 {
	m := x[0]
	for _, v := range x[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// MinValue returns the minimum sample.
func MinValue(x []float64) float64 {
	m := x[0]
	for _, v := range x[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// MeanValue returns the arithmetic mean.
func MeanValue(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v
	}
	return s / float64(len(x))
}

// Variance returns the population variance (divides by N, matching the
// hardware cell which avoids the N−1 correction divider).
func Variance(x []float64) float64 {
	mu := MeanValue(x)
	var s float64
	for _, v := range x {
		d := v - mu
		s += d * d
	}
	return s / float64(len(x))
}

// StdDev returns the population standard deviation.
func StdDev(x []float64) float64 { return math.Sqrt(Variance(x)) }

// ZeroCrossings counts sign changes around the segment mean. Biosignal
// segments in XPro are normalized to [0, 1] (§4.4), so raw sign changes
// would always be zero; the hardware cell counts crossings of the mean.
func ZeroCrossings(x []float64) int {
	mu := MeanValue(x)
	count := 0
	prev := 0 // sign of the previous non-zero deviation
	for _, v := range x {
		s := 0
		switch {
		case v > mu:
			s = 1
		case v < mu:
			s = -1
		}
		if s != 0 {
			if prev != 0 && s != prev {
				count++
			}
			prev = s
		}
	}
	return count
}

// Skewness returns the standardized third central moment. A constant
// segment (zero variance) has skewness 0.
func Skewness(x []float64) float64 {
	mu := MeanValue(x)
	var m2, m3 float64
	for _, v := range x {
		d := v - mu
		m2 += d * d
		m3 += d * d * d
	}
	n := float64(len(x))
	m2 /= n
	m3 /= n
	if m2 == 0 {
		return 0
	}
	return m3 / math.Pow(m2, 1.5)
}

// Kurtosis returns the standardized fourth central moment (not excess:
// a Gaussian segment gives ≈3). A constant segment yields 0.
func Kurtosis(x []float64) float64 {
	mu := MeanValue(x)
	var m2, m4 float64
	for _, v := range x {
		d := v - mu
		d2 := d * d
		m2 += d2
		m4 += d2 * d2
	}
	n := float64(len(x))
	m2 /= n
	m4 /= n
	if m2 == 0 {
		return 0
	}
	return m4 / (m2 * m2)
}
