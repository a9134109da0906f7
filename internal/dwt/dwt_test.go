package dwt

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"xpro/internal/fixed"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func randSignal(rng *rand.Rand, n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.Float64()*2 - 1
	}
	return x
}

// inverseStep reconstructs the even-length signal from one analysis step.
func inverseStep(w Wavelet, approx, detail []float64) ([]float64, error) {
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

// reconstruct inverts a Decomposition back to the original signal: the
// oracle of the perfect-reconstruction tests and FuzzRoundTrip.
func reconstruct(dec *Decomposition) ([]float64, error) {
	cur := append([]float64(nil), dec.Approx...)
	for l := len(dec.Details) - 1; l >= 0; l-- {
		x, err := inverseStep(dec.Wavelet, cur, dec.Details[l])
		if err != nil {
			return nil, fmt.Errorf("dwt: inverse level %d: %w", l+1, err)
		}
		cur = x
	}
	return cur, nil
}

func TestHaarStepKnown(t *testing.T) {
	// Haar of [1 1 2 2]: approx = [√2, 2√2], detail = [0, 0].
	a, d, err := Step(Haar, []float64{1, 1, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	r2 := math.Sqrt2
	if !almostEqual(a[0], r2, 1e-12) || !almostEqual(a[1], 2*r2, 1e-12) {
		t.Errorf("approx = %v, want [√2 2√2]", a)
	}
	if !almostEqual(d[0], 0, 1e-12) || !almostEqual(d[1], 0, 1e-12) {
		t.Errorf("detail = %v, want [0 0]", d)
	}
}

func TestStepErrors(t *testing.T) {
	if _, _, err := Step(Haar, []float64{1, 2, 3}); err == nil {
		t.Error("odd length should error")
	}
	if _, _, err := Step(DB4, []float64{1, 2}); err == nil {
		t.Error("signal shorter than db4 filter should error")
	}
	if _, err := Decompose(Haar, randSignal(rand.New(rand.NewSource(1)), 128), 0); err == nil {
		t.Error("levels=0 should error")
	}
	if _, err := Decompose(Haar, randSignal(rand.New(rand.NewSource(1)), 100), 3); err == nil {
		t.Error("length not divisible by 2^levels should error")
	}
}

func TestDecomposeLevelLengths(t *testing.T) {
	// §4.4: 128-sample input, 5 levels → details 64/32/16/8/4 and a
	// 4-sample approximation.
	x := randSignal(rand.New(rand.NewSource(7)), 128)
	dec, err := Decompose(Haar, x, 5)
	if err != nil {
		t.Fatal(err)
	}
	wantLens := []int{64, 32, 16, 8, 4}
	if len(dec.Details) != 5 {
		t.Fatalf("%d levels, want 5", len(dec.Details))
	}
	for i, w := range wantLens {
		if len(dec.Details[i]) != w {
			t.Errorf("detail level %d length = %d, want %d", i+1, len(dec.Details[i]), w)
		}
	}
	if len(dec.Approx) != 4 {
		t.Errorf("approx length = %d, want 4", len(dec.Approx))
	}
	if dec.NumBands() != 6 {
		t.Errorf("NumBands = %d, want 6", dec.NumBands())
	}
	if &dec.Band(5)[0] != &dec.Approx[0] {
		t.Error("Band(levels) should be the approximation")
	}
}

func TestPerfectReconstructionHaar(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	// Each length at its deepest Haar decomposition.
	for _, c := range []struct{ n, levels int }{{8, 2}, {32, 4}, {128, 6}} {
		n := c.n
		x := randSignal(rng, n)
		dec, err := Decompose(Haar, x, c.levels)
		if err != nil {
			t.Fatal(err)
		}
		back, err := reconstruct(dec)
		if err != nil {
			t.Fatal(err)
		}
		for i := range x {
			if !almostEqual(back[i], x[i], 1e-10) {
				t.Fatalf("haar n=%d: back[%d]=%v, want %v", n, i, back[i], x[i])
			}
		}
	}
}

func TestPerfectReconstructionDB4(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	x := randSignal(rng, 128)
	dec, err := Decompose(DB4, x, 4)
	if err != nil {
		t.Fatal(err)
	}
	back, err := reconstruct(dec)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if !almostEqual(back[i], x[i], 1e-10) {
			t.Fatalf("db4: back[%d]=%v, want %v", i, back[i], x[i])
		}
	}
}

// Property: orthonormality — the transform preserves signal energy
// (Parseval). Checked for both wavelets at one level.
func TestQuickEnergyPreservation(t *testing.T) {
	for _, w := range []Wavelet{Haar, DB4} {
		w := w
		f := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			x := randSignal(rng, 64)
			a, d, err := Step(w, x)
			if err != nil {
				return false
			}
			var ein, eout float64
			for _, v := range x {
				ein += v * v
			}
			for i := range a {
				eout += a[i]*a[i] + d[i]*d[i]
			}
			return almostEqual(ein, eout, 1e-9)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
			t.Errorf("%v: %v", w, err)
		}
	}
}

// Property: linearity — DWT(αx + y) = α·DWT(x) + DWT(y).
func TestQuickLinearity(t *testing.T) {
	f := func(seed int64, alphaRaw uint8) bool {
		alpha := float64(alphaRaw)/32 - 4
		rng := rand.New(rand.NewSource(seed))
		x := randSignal(rng, 32)
		y := randSignal(rng, 32)
		z := make([]float64, 32)
		for i := range z {
			z[i] = alpha*x[i] + y[i]
		}
		ax, dx, _ := Step(Haar, x)
		ay, dy, _ := Step(Haar, y)
		az, dz, _ := Step(Haar, z)
		for i := range az {
			if !almostEqual(az[i], alpha*ax[i]+ay[i], 1e-9) {
				return false
			}
			if !almostEqual(dz[i], alpha*dx[i]+dy[i], 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestFixedMatchesFloatHaar(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	x := randSignal(rng, 128)
	app := fixed.FromSlice(x)
	var det [][]fixed.Num
	for l := 0; l < 5; l++ {
		a, d, err := StepFixed(app)
		if err != nil {
			t.Fatal(err)
		}
		det, app = append(det, d), a
	}
	dec, err := Decompose(Haar, x, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Fixed-point error grows with depth; allow a generous but bounded
	// tolerance (5 levels × rounding per level).
	const tol = 1e-3
	for l := range det {
		for i := range det[l] {
			if !almostEqual(det[l][i].Float(), dec.Details[l][i], tol) {
				t.Fatalf("level %d detail[%d]: fixed %v vs float %v", l+1, i, det[l][i].Float(), dec.Details[l][i])
			}
		}
	}
	for i := range app {
		if !almostEqual(app[i].Float(), dec.Approx[i], tol) {
			t.Fatalf("approx[%d]: fixed %v vs float %v", i, app[i].Float(), dec.Approx[i])
		}
	}
}

func TestFixedStepErrors(t *testing.T) {
	if _, _, err := StepFixed([]fixed.Num{1, 2, 3}); err == nil {
		t.Error("odd length should error")
	}
}

// The Into forms write exactly what Step and StepFixed return, over
// whatever the outputs held, and reject outputs of the wrong length.
func TestStepIntoMatchesStep(t *testing.T) {
	x := randSignal(rand.New(rand.NewSource(5)), 64)
	for _, w := range []Wavelet{Haar, DB4} {
		a, d, err := Step(w, x)
		if err != nil {
			t.Fatal(err)
		}
		out := randSignal(rand.New(rand.NewSource(6)), 64)
		if err := StepInto(w, out[32:], out[:32], x); err != nil {
			t.Fatal(err)
		}
		for i := range a {
			if math.Float64bits(out[32+i]) != math.Float64bits(a[i]) || math.Float64bits(out[i]) != math.Float64bits(d[i]) {
				t.Fatalf("%s: StepInto coefficient %d differs from Step", w, i)
			}
		}
		if err := StepInto(w, out[:31], out[32:], x); err == nil {
			t.Errorf("%s: a short approx output should error", w)
		}
	}
	fx := fixed.FromSlice(x)
	a, d, err := StepFixed(fx)
	if err != nil {
		t.Fatal(err)
	}
	out := fixed.FromSlice(randSignal(rand.New(rand.NewSource(6)), 64))
	if err := StepFixedInto(out[32:], out[:32], fx); err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if out[32+i] != a[i] || out[i] != d[i] {
			t.Fatalf("StepFixedInto coefficient %d differs from StepFixed", i)
		}
	}
	if err := StepFixedInto(out[32:], out[:33], fx); err == nil {
		t.Error("a long detail output should error")
	}
}

func TestWaveletString(t *testing.T) {
	if Haar.String() != "haar" || DB4.String() != "db4" {
		t.Error("wavelet names wrong")
	}
	if Wavelet(9).String() != "Wavelet(9)" {
		t.Error("unknown wavelet formatting wrong")
	}
}

func BenchmarkDecomposeHaar128x5(b *testing.B) {
	x := randSignal(rand.New(rand.NewSource(3)), 128)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Decompose(Haar, x, 5); err != nil {
			b.Fatal(err)
		}
	}
}
