package stats

import (
	"math"
	"testing"

	"xpro/internal/fixed"
)

// FuzzFeatures checks every feature is total and finite on arbitrary
// inputs, in both the float and fixed implementations, and that the
// fixed path never panics even on adversarial bit patterns.
func FuzzFeatures(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{128})
	f.Add([]byte{0, 255, 0, 255, 7})
	f.Add(make([]byte, 200))
	f.Fuzz(func(t *testing.T, raw []byte) {
		x := make([]float64, len(raw))
		fx := make([]fixed.Num, len(raw))
		for i, b := range raw {
			x[i] = float64(b) / 255
			fx[i] = fixed.FromFloat(x[i])
		}
		for _, feat := range AllFeatures {
			v := Compute(feat, x)
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("%v produced non-finite %v", feat, v)
			}
			_ = ComputeFixed(feat, fx)
		}
		if len(x) > 0 {
			all := ComputeAll(x)
			if all[Min] > all[Max] {
				t.Fatalf("Min %v > Max %v", all[Min], all[Max])
			}
			if all[Var] < 0 {
				t.Fatalf("negative variance %v", all[Var])
			}
			allFx := computeAllFixed(fx)
			if allFx[Var] < 0 {
				t.Fatalf("negative fixed variance %v", allFx[Var])
			}
		}
	})
}
