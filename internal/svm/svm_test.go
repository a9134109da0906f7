package svm

import (
	"math"
	"math/rand"
	"testing"

	"xpro/internal/fixed"
)

// blobs generates two Gaussian blobs with the given center separation.
func blobs(rng *rand.Rand, n, dim int, sep float64) (x [][]float64, y []int) {
	for i := 0; i < n; i++ {
		label := 1
		if i%2 == 0 {
			label = -1
		}
		row := make([]float64, dim)
		for d := range row {
			row[d] = rng.NormFloat64()*0.5 + float64(label)*sep/2
		}
		x = append(x, row)
		y = append(y, label)
	}
	return x, y
}

// ring generates a radially separable (non-linear) dataset: class +1
// inside the unit circle, −1 in an annulus.
func ring(rng *rand.Rand, n int) (x [][]float64, y []int) {
	for i := 0; i < n; i++ {
		var r float64
		label := 1
		if i%2 == 0 {
			label = -1
			r = 1.8 + rng.Float64()*0.6
		} else {
			r = rng.Float64() * 0.8
		}
		th := rng.Float64() * 2 * math.Pi
		x = append(x, []float64{r * math.Cos(th), r * math.Sin(th)})
		y = append(y, label)
	}
	return x, y
}

func TestLinearSeparable(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x, y := blobs(rng, 200, 4, 4)
	m, err := Train(x, y, Params{Kernel: Linear, C: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if acc := m.Accuracy(x, y); acc < 0.99 {
		t.Errorf("linear separable accuracy = %v, want ≥ 0.99", acc)
	}
	if m.W == nil {
		t.Error("linear model must expose explicit weights")
	}
	if m.NumSV() == 0 || m.NumSV() == len(x) {
		t.Errorf("NumSV = %d, want sparse support set", m.NumSV())
	}
}

func TestRBFNonlinear(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x, y := ring(rng, 240)
	// Linear SVM cannot separate a ring.
	lin, err := Train(x, y, Params{Kernel: Linear, C: 1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	linAcc := lin.Accuracy(x, y)
	// RBF should.
	rbf, err := Train(x, y, Params{Kernel: RBF, C: 10, Gamma: 1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	rbfAcc := rbf.Accuracy(x, y)
	if rbfAcc < 0.97 {
		t.Errorf("rbf ring accuracy = %v, want ≥ 0.97", rbfAcc)
	}
	if rbfAcc <= linAcc {
		t.Errorf("rbf (%v) should beat linear (%v) on ring data", rbfAcc, linAcc)
	}
}

func TestGeneralization(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	xTr, yTr := blobs(rng, 150, 6, 3)
	xTe, yTe := blobs(rng, 150, 6, 3)
	m, err := Train(xTr, yTr, Params{Kernel: RBF, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if acc := m.Accuracy(xTe, yTe); acc < 0.95 {
		t.Errorf("holdout accuracy = %v, want ≥ 0.95", acc)
	}
}

func TestTrainErrors(t *testing.T) {
	if _, err := Train(nil, nil, Params{}); err == nil {
		t.Error("empty set should error")
	}
	if _, err := Train([][]float64{{1}}, []int{1}, Params{}); err == nil {
		t.Error("single-class set should error")
	}
	if _, err := Train([][]float64{{1}, {2}}, []int{1, 0}, Params{}); err == nil {
		t.Error("bad label should error")
	}
	if _, err := Train([][]float64{{1}, {2, 3}}, []int{1, -1}, Params{}); err == nil {
		t.Error("ragged rows should error")
	}
	if _, err := Train([][]float64{{1}, {2}}, []int{1}, Params{}); err == nil {
		t.Error("mismatched y should error")
	}
}

func TestDecisionSignMatchesPredict(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x, y := blobs(rng, 100, 3, 2)
	m, err := Train(x, y, Params{Kernel: RBF, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range x {
		d := m.Decision(row)
		p := m.Predict(row)
		if (d >= 0) != (p == 1) {
			t.Fatalf("decision %v disagrees with predict %d", d, p)
		}
	}
}

func TestFixedDecisionTracksFloat(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	// Normalized-feature domain: inputs in [0,1] like XPro's cells see.
	var x [][]float64
	var y []int
	for i := 0; i < 160; i++ {
		label := 1
		off := 0.3
		if i%2 == 0 {
			label = -1
			off = 0.7
		}
		row := []float64{off + 0.1*rng.NormFloat64(), off + 0.1*rng.NormFloat64(), rng.Float64()}
		x = append(x, row)
		y = append(y, label)
	}
	for _, kind := range []KernelKind{Linear, RBF} {
		m, err := Train(x, y, Params{Kernel: kind, C: 5, Gamma: 2, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		agree := 0
		for _, row := range x {
			if (m.DecisionFixed(fixed.FromSlice(row)) >= 0) == (m.Predict(row) == 1) {
				agree++
			}
		}
		if frac := float64(agree) / float64(len(x)); frac < 0.97 {
			t.Errorf("%v: fixed/float prediction agreement %v, want ≥ 0.97", kind, frac)
		}
	}
}

func TestAccuracyEmpty(t *testing.T) {
	m := &Model{}
	if m.Accuracy(nil, nil) != 0 {
		t.Error("accuracy of empty set should be 0")
	}
}

func TestDim(t *testing.T) {
	m := &Model{Vectors: [][]float64{{1, 2, 3}}}
	if m.Dim() != 3 {
		t.Error("Dim from vectors wrong")
	}
	m2 := &Model{W: []float64{1, 2}}
	if m2.Dim() != 2 {
		t.Error("Dim from W wrong")
	}
}

func TestKernelKindString(t *testing.T) {
	if Linear.String() != "linear" || RBF.String() != "rbf" {
		t.Error("kernel names wrong")
	}
	if KernelKind(5).String() != "KernelKind(5)" {
		t.Error("unknown kernel formatting wrong")
	}
}

func BenchmarkTrainRBF200(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	x, y := blobs(rng, 200, 12, 2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Train(x, y, Params{Kernel: RBF, Seed: 6}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecisionRBF(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	x, y := blobs(rng, 200, 12, 2)
	m, err := Train(x, y, Params{Kernel: RBF, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.Decision(x[i%len(x)])
	}
}

// decisionFixedReference is DecisionFixed quantizing every parameter on
// every call, as it did before models kept a Q16.16 image.
func decisionFixedReference(m *Model, x []fixed.Num) fixed.Num {
	if m.Kernel == Linear && m.W != nil {
		acc := fixed.FromFloat(m.Bias)
		for d, w := range m.W {
			acc = fixed.Add(acc, fixed.Mul(fixed.FromFloat(w), x[d]))
		}
		return acc
	}
	gamma := fixed.FromFloat(m.Gamma)
	acc := fixed.FromFloat(m.Bias)
	for i, v := range m.Vectors {
		var d2 fixed.Num
		for d := range v {
			diff := fixed.Sub(fixed.FromFloat(v[d]), x[d])
			d2 = fixed.Add(d2, fixed.Mul(diff, diff))
		}
		kv := fixed.Exp(fixed.Neg(fixed.Mul(gamma, d2)))
		acc = fixed.Add(acc, fixed.Mul(fixed.FromFloat(m.Coeffs[i]), kv))
	}
	return acc
}

// TestDecisionFixedMatchesPerCallQuantization: the cached Q16.16 image
// gives the per-call-quantizing decision bit for bit, on RBF and linear
// models, over random inputs including saturating ones.
func TestDecisionFixedMatchesPerCallQuantization(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x, y := blobs(rng, 120, 4, 1.5)
	for _, kind := range []KernelKind{RBF, Linear} {
		m, err := Train(x, y, Params{Kernel: kind, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2000; i++ {
			in := make([]fixed.Num, 4)
			for d := range in {
				switch rng.Intn(4) {
				case 0:
					in[d] = fixed.Num(rng.Int31()) - fixed.Num(rng.Int31()) // saturating
				case 1:
					in[d] = []fixed.Num{fixed.Max, fixed.Min, 0}[rng.Intn(3)]
				default:
					in[d] = fixed.FromFloat(rng.NormFloat64() * 2)
				}
			}
			if got, want := m.DecisionFixed(in), decisionFixedReference(m, in); got != want {
				t.Fatalf("%v model, input %v: DecisionFixed %d, reference %d", kind, in, got, want)
			}
		}
	}
}

// TestDecisionFixedConcurrentFirstUse: goroutines racing on a fresh
// model's first fixed-point decision all see the same image.
func TestDecisionFixedConcurrentFirstUse(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	x, y := ring(rng, 80)
	m, err := Train(x, y, Params{Kernel: RBF, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	in := []fixed.Num{fixed.FromFloat(0.3), fixed.FromFloat(-0.2)}
	want := decisionFixedReference(m, in)
	done := make(chan fixed.Num)
	for g := 0; g < 4; g++ {
		go func() { done <- m.DecisionFixed(in) }()
	}
	for g := 0; g < 4; g++ {
		if got := <-done; got != want {
			t.Fatalf("concurrent DecisionFixed %d, want %d", got, want)
		}
	}
}
