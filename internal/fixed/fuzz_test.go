package fixed

import (
	"math"
	"testing"
)

// FuzzArithmetic checks that every operation is total (no panics) and
// respects saturation bounds for arbitrary operands.
func FuzzArithmetic(f *testing.F) {
	f.Add(int32(0), int32(0))
	f.Add(int32(math.MaxInt32), int32(math.MinInt32))
	f.Add(int32(1<<16), int32(-1<<16))
	f.Add(int32(12345), int32(-99999))
	f.Fuzz(func(t *testing.T, a, b int32) {
		x, y := Num(a), Num(b)
		for _, v := range []Num{
			Add(x, y), Sub(x, y), Mul(x, y), Div(x, y),
			Neg(x), Sqrt(x), Exp(x),
		} {
			_ = v // all results are valid Nums by construction
		}
		if x != Min && Neg(Neg(x)) != x {
			t.Errorf("Neg(Neg(%d)) = %d", x, Neg(Neg(x)))
		}
		if s := Sqrt(x); s < 0 {
			t.Errorf("Sqrt(%d) = %d is negative", x, s)
		}
		if e := Exp(x); e < 0 {
			t.Errorf("Exp(%d) = %d is negative", x, e)
		}
		// Division must agree with float math when well inside range.
		if y != 0 {
			got := Div(x, y).Float()
			want := x.Float() / y.Float()
			if math.Abs(want) < 30000 && math.Abs(y.Float()) > 1e-3 {
				if math.Abs(got-want) > 2e-3*math.Max(1, math.Abs(want)) {
					t.Errorf("Div(%v,%v) = %v, want ≈ %v", x.Float(), y.Float(), got, want)
				}
			}
		}
	})
}

// FuzzFromFloat checks the float conversion round-trips within the
// representable range and saturates cleanly outside it.
func FuzzFromFloat(f *testing.F) {
	f.Add(0.0)
	f.Add(1.5)
	f.Add(-32768.0)
	f.Add(1e300)
	f.Add(math.Inf(-1))
	f.Fuzz(func(t *testing.T, v float64) {
		n := FromFloat(v)
		back := n.Float()
		switch {
		case math.IsNaN(v):
			if n != 0 {
				t.Errorf("FromFloat(NaN) = %v", n)
			}
		case v >= Max.Float():
			if n != Max {
				t.Errorf("FromFloat(%v) = %v, want Max", v, n)
			}
		case v <= Min.Float():
			if n != Min {
				t.Errorf("FromFloat(%v) = %v, want Min", v, n)
			}
		default:
			if math.Abs(back-v) > 1.0/(1<<17)+1e-12*math.Abs(v) {
				t.Errorf("round trip %v → %v drifts", v, back)
			}
		}
	})
}
