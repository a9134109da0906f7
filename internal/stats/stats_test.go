package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"xpro/internal/fixed"
)

// computeAllFixed evaluates every feature over x, indexed by Feature.
// Var and Std share the variance datapath (cell-level reuse).
func computeAllFixed(x []fixed.Num) []fixed.Num {
	out := make([]fixed.Num, NumFeatures)
	for _, f := range AllFeatures {
		if f == Std {
			// Reuse the Var cell output (design rule 3).
			out[Std] = fixed.Sqrt(out[Var])
			continue
		}
		out[f] = ComputeFixed(f, x)
	}
	return out
}

func TestFeatureStrings(t *testing.T) {
	want := []string{"Max", "Min", "Mean", "Var", "Std", "CZero", "Skew", "Kurt"}
	for i, f := range AllFeatures {
		if f.String() != want[i] {
			t.Errorf("feature %d string = %q, want %q", i, f.String(), want[i])
		}
	}
	if Feature(99).String() != "Feature(99)" {
		t.Error("unknown feature formatting wrong")
	}
}

func TestKnownValues(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	if MaxValue(x) != 4 || MinValue(x) != 1 {
		t.Error("max/min wrong")
	}
	if MeanValue(x) != 2.5 {
		t.Error("mean wrong")
	}
	if Variance(x) != 1.25 {
		t.Errorf("variance = %v, want 1.25", Variance(x))
	}
	if StdDev(x) != math.Sqrt(1.25) {
		t.Error("std wrong")
	}
	// Deviations from mean 2.5: -,-,+,+ → one crossing.
	if ZeroCrossings(x) != 1 {
		t.Errorf("czero = %d, want 1", ZeroCrossings(x))
	}
}

func TestSymmetricSkewIsZero(t *testing.T) {
	x := []float64{-2, -1, 0, 1, 2}
	if got := Skewness(x); math.Abs(got) > 1e-12 {
		t.Errorf("skew of symmetric = %v, want 0", got)
	}
}

func TestSkewSign(t *testing.T) {
	right := []float64{0, 0, 0, 0, 10} // long right tail
	if Skewness(right) <= 0 {
		t.Error("right-tailed segment should have positive skew")
	}
	left := []float64{0, 0, 0, 0, -10}
	if Skewness(left) >= 0 {
		t.Error("left-tailed segment should have negative skew")
	}
}

func TestKurtosisGaussianIsNear3(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x := make([]float64, 100000)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	if got := Kurtosis(x); math.Abs(got-3) > 0.1 {
		t.Errorf("kurtosis of gaussian = %v, want ≈3", got)
	}
}

func TestDegenerateSegments(t *testing.T) {
	if Compute(Skew, []float64{5, 5, 5}) != 0 {
		t.Error("skew of constant should be 0")
	}
	if Compute(Kurt, []float64{5, 5, 5}) != 0 {
		t.Error("kurt of constant should be 0")
	}
	for _, f := range AllFeatures {
		if Compute(f, nil) != 0 {
			t.Errorf("%v of empty should be 0", f)
		}
		if ComputeFixed(f, nil) != 0 {
			t.Errorf("fixed %v of empty should be 0", f)
		}
	}
}

func TestZeroCrossingsSine(t *testing.T) {
	// Two full periods of a sine cross the mean 4 times (well, 3 interior
	// sign changes plus the wrap; count exactly).
	n := 128
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Sin(4 * math.Pi * float64(i) / float64(n))
	}
	got := ZeroCrossings(x)
	if got < 3 || got > 4 {
		t.Errorf("sine zero crossings = %d, want 3-4", got)
	}
}

func TestComputeAllOrder(t *testing.T) {
	x := []float64{0.1, 0.9, 0.4, 0.6}
	all := ComputeAll(x)
	if len(all) != NumFeatures {
		t.Fatalf("len = %d", len(all))
	}
	for _, f := range AllFeatures {
		if all[f] != Compute(f, x) {
			t.Errorf("ComputeAll[%v] mismatch", f)
		}
	}
}

// Fixed-point implementations must track the float64 reference on
// normalized [0,1] segments (the XPro operating domain).
func TestFixedMatchesFloat(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 20; trial++ {
		n := 16 + rng.Intn(120)
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.Float64()
		}
		fx := fixed.FromSlice(x)
		tol := map[Feature]float64{
			Max: 1e-4, Min: 1e-4, Mean: 1e-4, Var: 2e-3, Std: 2e-3,
			CZero: 0.5, Skew: 0.12, Kurt: 0.25,
		}
		for _, f := range AllFeatures {
			got := ComputeFixed(f, fx).Float()
			want := Compute(f, x)
			if math.Abs(got-want) > tol[f]*math.Max(1, math.Abs(want)) {
				t.Errorf("trial %d %v: fixed %v vs float %v", trial, f, got, want)
			}
		}
	}
}

// The reuse path (design rule 3): a Std stage appended to the Var cell
// takes the square root of the Var output, so the Std cell must equal it.
func TestFixedStdReusesVar(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	x := make([]fixed.Num, 64)
	for i := range x {
		x[i] = fixed.FromFloat(rng.Float64())
	}
	v := ComputeFixed(Var, x)
	if v != VarFixed(x) {
		t.Error("the Var dispatch must equal the Var cell")
	}
	if got := ComputeFixed(Std, x); got != fixed.Sqrt(v) {
		t.Errorf("Std = %v, want the square root of the Var output %v", got, fixed.Sqrt(v))
	}
	if StdFixed(x) != fixed.Sqrt(VarFixed(x)) {
		t.Error("the Std cell must be the square root of the Var cell")
	}
}

// Property: Min ≤ Mean ≤ Max for any segment.
func TestQuickMinMeanMax(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(200)
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.Float64()*20 - 10
		}
		return MinValue(x) <= MeanValue(x)+1e-12 && MeanValue(x) <= MaxValue(x)+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: Variance is non-negative and shift-invariant.
func TestQuickVarianceShiftInvariant(t *testing.T) {
	f := func(seed int64, shiftRaw uint8) bool {
		shift := float64(shiftRaw)/16 - 8
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(100)
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = rng.Float64()
			y[i] = x[i] + shift
		}
		v1, v2 := Variance(x), Variance(y)
		return v1 >= 0 && math.Abs(v1-v2) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: Kurtosis ≥ 1 + Skewness² (standard moment inequality) for
// non-degenerate segments.
func TestQuickMomentInequality(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(100)
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		if Variance(x) == 0 {
			return true
		}
		s := Skewness(x)
		k := Kurtosis(x)
		return k+1e-9 >= 1+s*s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func BenchmarkComputeAllFloat128(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	x := make([]float64, 128)
	for i := range x {
		x[i] = rng.Float64()
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = ComputeAll(x)
	}
}
