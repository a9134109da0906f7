package stats

import "xpro/internal/fixed"

// ComputeFixed evaluates feature f over segment x in Q16.16 fixed point,
// exactly as the in-sensor functional cell computes it. Empty segments
// yield 0.
func ComputeFixed(f Feature, x []fixed.Num) fixed.Num {
	if len(x) == 0 {
		return 0
	}
	switch f {
	case Max:
		return MaxFixed(x)
	case Min:
		return MinFixed(x)
	case Mean:
		return MeanFixed(x)
	case Var:
		return VarFixed(x)
	case Std:
		return StdFixed(x)
	case CZero:
		return fixed.FromInt(ZeroCrossingsFixed(x))
	case Skew:
		return SkewFixed(x)
	case Kurt:
		return KurtFixed(x)
	default:
		return 0
	}
}

// MaxFixed returns the maximum sample.
func MaxFixed(x []fixed.Num) fixed.Num {
	m := x[0]
	for _, v := range x[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// MinFixed returns the minimum sample.
func MinFixed(x []fixed.Num) fixed.Num {
	m := x[0]
	for _, v := range x[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// MeanFixed returns the arithmetic mean. The sum is kept in 64-bit, as
// the hardware accumulator is wider than the 32-bit datapath.
func MeanFixed(x []fixed.Num) fixed.Num {
	var s int64
	for _, v := range x {
		s += int64(v)
	}
	return fixed.Num(s / int64(len(x)))
}

// VarFixed returns the population variance.
func VarFixed(x []fixed.Num) fixed.Num {
	mu := MeanFixed(x)
	var s int64
	for _, v := range x {
		d := int64(v) - int64(mu)
		// d is at most 2^32 in magnitude; d*d>>16 fits 64-bit comfortably.
		s += (d * d) >> fixed.Shift
	}
	return fixed.Num(s / int64(len(x)))
}

// StdFixed returns the population standard deviation: the Var cell plus
// a square-root stage (design rule 3, Fig. 5).
func StdFixed(x []fixed.Num) fixed.Num { return fixed.Sqrt(VarFixed(x)) }

// ZeroCrossingsFixed counts sign changes of the deviation from the mean.
func ZeroCrossingsFixed(x []fixed.Num) int {
	mu := MeanFixed(x)
	count := 0
	prev := 0
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

// SkewFixed returns the standardized third central moment.
func SkewFixed(x []fixed.Num) fixed.Num {
	mu := MeanFixed(x)
	n := int64(len(x))
	var m2, m3 int64 // Q16.16 accumulators
	for _, v := range x {
		d := int64(v) - int64(mu)
		d2 := (d * d) >> fixed.Shift
		m2 += d2
		m3 += (d2 * d) >> fixed.Shift
	}
	m2 /= n
	m3 /= n
	if m2 == 0 {
		return 0
	}
	sd := fixed.Sqrt(fixed.Num(clamp32(m2)))
	den := fixed.Mul(fixed.Mul(sd, sd), sd)
	return fixed.Div(fixed.Num(clamp32(m3)), den)
}

// KurtFixed returns the standardized fourth central moment.
func KurtFixed(x []fixed.Num) fixed.Num {
	mu := MeanFixed(x)
	n := int64(len(x))
	var m2, m4 int64
	for _, v := range x {
		d := int64(v) - int64(mu)
		d2 := (d * d) >> fixed.Shift
		m2 += d2
		m4 += (d2 * d2) >> fixed.Shift
	}
	m2 /= n
	m4 /= n
	if m2 == 0 {
		return 0
	}
	den := (m2 * m2) >> fixed.Shift
	if den == 0 {
		return 0
	}
	return fixed.Div(fixed.Num(clamp32(m4)), fixed.Num(clamp32(den)))
}

func clamp32(v int64) int32 {
	if v > int64(fixed.Max) {
		return int32(fixed.Max)
	}
	if v < int64(fixed.Min) {
		return int32(fixed.Min)
	}
	return int32(v)
}
