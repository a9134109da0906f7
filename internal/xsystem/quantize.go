package xsystem

import (
	"math"

	"xpro/internal/ensemble"
	"xpro/internal/fixed"
	"xpro/internal/topology"
)

// This file implements wire quantization: the energy model prices
// payloads at their wire widths (raw samples 16 bit, feature values Q0.8,
// other values Q8.8 — see internal/wireless), so the functional
// simulation must round values to those widths whenever they cross the
// link. Without this, the simulated classification would be more
// accurate than the machine being priced.

// quantizeWire rounds v to the wire format of an edge with the given
// per-value bit width. Widths up to 8 bits are the unsigned [0,1]
// fraction format of normalized features (Q0.b); wider payloads are
// signed with the bits split evenly (Q(b/2).(b/2), e.g. Q8.8 at 16
// bits, which also covers features on a widened wire).
func quantizeWire(v float64, bits int64) float64 {
	if bits < 1 || bits > 24 {
		return v
	}
	if bits <= 8 {
		levels := float64(int64(1)<<uint(bits)) - 1
		return math.Round(clamp(v, 0, 1)*levels) / levels
	}
	frac := uint(bits / 2)
	scale := float64(int64(1) << frac)
	limit := float64(int64(1) << uint(bits-1-int64(frac)))
	return math.Round(clamp(v, -limit, limit-1/scale)*scale) / scale
}

// wireEncode maps v to its wire code word at the given width — the
// integer the transceiver actually puts on the air. It is the integer
// half of quantizeWire: wireDecode(wireEncode(v, b), b) ==
// quantizeWire(v, b) for every in-range width.
func wireEncode(v float64, bits int64) uint64 {
	if bits < 1 || bits > 24 {
		return 0
	}
	if bits <= 8 {
		levels := float64(int64(1)<<uint(bits)) - 1
		return uint64(math.Round(clamp(v, 0, 1) * levels))
	}
	frac := uint(bits / 2)
	scale := float64(int64(1) << frac)
	limit := float64(int64(1) << uint(bits-1-int64(frac)))
	q := int64(math.Round(clamp(v, -limit, limit-1/scale) * scale))
	return uint64(q) & (1<<uint(bits) - 1) // two's complement within bits
}

// wireDecode maps a code word back to the value the receiver consumes.
func wireDecode(code uint64, bits int64) float64 {
	if bits < 1 || bits > 24 {
		return 0
	}
	if bits <= 8 {
		levels := float64(int64(1)<<uint(bits)) - 1
		return float64(code) / levels
	}
	frac := uint(bits / 2)
	if code&(1<<uint(bits-1)) != 0 {
		code |= ^uint64(0) << uint(bits) // sign-extend
	}
	return float64(int64(code)) / float64(int64(1)<<frac)
}

// corruptWire models undetected bit errors on the air: v's code word is
// XORed with mask and decoded as the receiver would. Every corrupted
// word is itself a valid code word, so downstream re-quantization is a
// no-op and the damage survives intact to the consuming cell.
func corruptWire(v float64, bits int64, mask uint64) float64 {
	if bits < 1 || bits > 24 {
		return v
	}
	return wireDecode(wireEncode(v, bits)^(mask&(1<<uint(bits)-1)), bits)
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// perValueBits returns the wire width of ONE value on edge e (Edge.Bits
// is the whole payload).
func perValueBits(e topology.Edge) int64 {
	if e.Values == 0 {
		return 0
	}
	return e.Bits / int64(e.Values)
}

// crossFloat quantizes producer value v, consumed on the other end of
// edge e in float64, into dst, which must be at least as long as v, and
// returns that prefix of dst.
func crossFloat(dst []float64, v value, e topology.Edge) []float64 {
	bits := perValueBits(e)
	dst = dst[:v.len()]
	for i := range dst {
		dst[i] = quantizeWire(v.at(i), bits)
	}
	return dst
}

// crossFixed is crossFloat for a consumer that computes in Q16.16.
func crossFixed(dst []fixed.Num, v value, e topology.Edge) []fixed.Num {
	bits := perValueBits(e)
	dst = dst[:v.len()]
	for i := range dst {
		dst[i] = fixed.FromFloat(quantizeWire(v.at(i), bits))
	}
	return dst
}

// crossScalar is element 0 of a crossing payload, quantized to the
// wire.
func crossScalar(v value, e topology.Edge) float64 {
	return quantizeWire(v.at(0), perValueBits(e))
}

// normFixed applies a feature normalization range in Q16.16: the
// hardware cell's final (v − min)·scale stage with [0,1] clamping.
func normFixed(v fixed.Num, r ensemble.Range) fixed.Num {
	if r.Scale == 0 {
		return 0
	}
	n := fixed.Mul(fixed.Sub(v, fixed.FromFloat(r.Min)), fixed.FromFloat(r.Scale))
	if n < 0 {
		return 0
	}
	if n > fixed.One {
		return fixed.One
	}
	return n
}
