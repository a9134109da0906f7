package svm

import (
	"math"
	"math/rand"
	"testing"
)

// trainMVP fits the same soft-margin SVM as Train but with
// maximal-violating-pair working-set selection (the Keerthi/LIBSVM
// family) instead of Platt's randomized second-choice heuristic. It
// maintains the dual gradient incrementally and picks, at every step,
// the most KKT-violating pair — converging in far fewer iterations on
// the overlapping biosignal training sets, at identical model quality.
//
// It is the tests' independent check that Train reaches the dual
// optimum.
func trainMVP(x [][]float64, y []int, p Params) (*Model, error) {
	n := len(x)
	if n == 0 || len(y) != n {
		return nil, ErrBadTrainingSet
	}
	dim := len(x[0])
	pos, neg := 0, 0
	for i, row := range x {
		if len(row) != dim {
			return nil, ErrBadTrainingSet
		}
		switch y[i] {
		case 1:
			pos++
		case -1:
			neg++
		default:
			return nil, ErrBadTrainingSet
		}
	}
	if pos == 0 || neg == 0 {
		return nil, ErrBadTrainingSet
	}
	p = p.withDefaults(dim)

	// Full kernel matrix (training sets here are ≤ ~1k rows).
	k := make([][]float64, n)
	for i := range k {
		k[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := kernel(p.Kernel, p.Gamma, x[i], x[j])
			k[i][j], k[j][i] = v, v
		}
	}

	// Dual: min ½ αᵀQα − eᵀα, Q_ij = y_i y_j K_ij, 0 ≤ α ≤ C, yᵀα = 0.
	// G_i = (Qα)_i − 1.
	alpha := make([]float64, n)
	grad := make([]float64, n)
	for i := range grad {
		grad[i] = -1
	}
	yf := make([]float64, n)
	for i := range yf {
		yf[i] = float64(y[i])
	}

	maxIter := 10000 * n
	for iter := 0; iter < maxIter; iter++ {
		// Select the maximal violating pair.
		i, j := -1, -1
		gmax, gmin := math.Inf(-1), math.Inf(1)
		for t := 0; t < n; t++ {
			up := (yf[t] > 0 && alpha[t] < p.C) || (yf[t] < 0 && alpha[t] > 0)
			low := (yf[t] > 0 && alpha[t] > 0) || (yf[t] < 0 && alpha[t] < p.C)
			v := -yf[t] * grad[t]
			if up && v > gmax {
				gmax, i = v, t
			}
			if low && v < gmin {
				gmin, j = v, t
			}
		}
		if i < 0 || j < 0 || gmax-gmin < p.Tol {
			break
		}

		// Analytic two-variable update along the feasible direction
		// d_i = y_i, d_j = −y_j (which keeps yᵀα constant). The
		// curvature along d is dᵀQd = K_ii + K_jj − 2K_ij.
		eta := k[i][i] + k[j][j] - 2*k[i][j]
		if eta <= 0 {
			eta = 1e-12
		}
		delta := (gmax - gmin) / eta
		// Clip to the box: α_i moves by y_i·s, α_j by −y_j·s in the
		// standard parameterization; work in the (α_i, α_j) plane.
		oldAi, oldAj := alpha[i], alpha[j]
		// Move α_i up-direction, α_j down-direction by t ≥ 0.
		t := delta
		if yf[i] > 0 {
			t = math.Min(t, p.C-oldAi)
		} else {
			t = math.Min(t, oldAi)
		}
		if yf[j] > 0 {
			t = math.Min(t, oldAj)
		} else {
			t = math.Min(t, p.C-oldAj)
		}
		if t <= 0 {
			break
		}
		if yf[i] > 0 {
			alpha[i] += t
		} else {
			alpha[i] -= t
		}
		if yf[j] > 0 {
			alpha[j] -= t
		} else {
			alpha[j] += t
		}
		// Incremental gradient update: G += Q·Δα.
		dAi, dAj := alpha[i]-oldAi, alpha[j]-oldAj
		for s := 0; s < n; s++ {
			grad[s] += yf[s] * (yf[i]*k[i][s]*dAi + yf[j]*k[j][s]*dAj)
		}
	}

	// Bias from the free support vectors: for a free SV t,
	// y_t·f(x_t) = 1 ⇒ b = −y_t·G_t (G_t = (Qα)_t − 1). Fall back to
	// the violating-bounds midpoint when no SV is strictly inside the
	// box.
	var bSum float64
	var bCount int
	for t := 0; t < n; t++ {
		if alpha[t] > 1e-9 && alpha[t] < p.C-1e-9 {
			bSum += -yf[t] * grad[t]
			bCount++
		}
	}
	var bias float64
	if bCount > 0 {
		bias = bSum / float64(bCount)
	} else {
		gmax, gmin := math.Inf(-1), math.Inf(1)
		for t := 0; t < n; t++ {
			up := (yf[t] > 0 && alpha[t] < p.C) || (yf[t] < 0 && alpha[t] > 0)
			low := (yf[t] > 0 && alpha[t] > 0) || (yf[t] < 0 && alpha[t] < p.C)
			v := -yf[t] * grad[t]
			if up && v > gmax {
				gmax = v
			}
			if low && v < gmin {
				gmin = v
			}
		}
		bias = (gmax + gmin) / 2
	}

	m := &Model{Kernel: p.Kernel, Gamma: p.Gamma, Bias: bias}
	for t := 0; t < n; t++ {
		if alpha[t] > 1e-9 {
			m.Vectors = append(m.Vectors, append([]float64(nil), x[t]...))
			m.Coeffs = append(m.Coeffs, alpha[t]*yf[t])
		}
	}
	if p.Kernel == Linear {
		m.W = make([]float64, dim)
		for s, v := range m.Vectors {
			for d := range v {
				m.W[d] += m.Coeffs[s] * v[d]
			}
		}
	}
	return m, nil
}

// dualObjective evaluates −(½ Σ α_i α_j y_i y_j K_ij − Σ α_i) for a
// trained model's implied α (the coefficient magnitudes), using the
// model's own kernel — a trainer-independent quality metric: higher is
// closer to the dual optimum.
func (m *Model) dualObjective() float64 {
	var lin, quad float64
	for i := range m.Coeffs {
		lin += math.Abs(m.Coeffs[i])
		for j := range m.Coeffs {
			quad += m.Coeffs[i] * m.Coeffs[j] * kernel(m.Kernel, m.Gamma, m.Vectors[i], m.Vectors[j])
		}
	}
	return lin - 0.5*quad
}

func TestMVPLinearSeparable(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	x, y := blobs(rng, 200, 4, 4)
	m, err := trainMVP(x, y, Params{Kernel: Linear, C: 1})
	if err != nil {
		t.Fatal(err)
	}
	if acc := m.Accuracy(x, y); acc < 0.99 {
		t.Errorf("MVP linear separable accuracy = %v, want ≥ 0.99", acc)
	}
	if m.W == nil {
		t.Error("linear model must expose explicit weights")
	}
}

func TestMVPRing(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	x, y := ring(rng, 240)
	m, err := trainMVP(x, y, Params{Kernel: RBF, C: 10, Gamma: 1})
	if err != nil {
		t.Fatal(err)
	}
	if acc := m.Accuracy(x, y); acc < 0.97 {
		t.Errorf("MVP rbf ring accuracy = %v, want ≥ 0.97", acc)
	}
}

// Both optimizers solve the same convex dual: their objectives must
// agree closely, and MVP must never be materially worse.
func TestMVPMatchesSMOObjective(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 3; trial++ {
		x, y := blobs(rng, 150+40*trial, 6, 1.2)
		p := Params{Kernel: RBF, C: 2, Gamma: 0.5, Seed: int64(trial)}
		smo, err := Train(x, y, p)
		if err != nil {
			t.Fatal(err)
		}
		mvp, err := trainMVP(x, y, p)
		if err != nil {
			t.Fatal(err)
		}
		objSMO, objMVP := smo.dualObjective(), mvp.dualObjective()
		if objMVP < objSMO*(1-0.02)-1e-9 {
			t.Errorf("trial %d: MVP dual %v materially below SMO %v", trial, objMVP, objSMO)
		}
		// Prediction agreement on the training set.
		agree := 0
		for i := range x {
			if smo.Predict(x[i]) == mvp.Predict(x[i]) {
				agree++
			}
		}
		if frac := float64(agree) / float64(len(x)); frac < 0.95 {
			t.Errorf("trial %d: trainer agreement %v, want ≥ 0.95", trial, frac)
		}
	}
}

func TestMVPGeneralization(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	xTr, yTr := blobs(rng, 150, 6, 3)
	xTe, yTe := blobs(rng, 150, 6, 3)
	m, err := trainMVP(xTr, yTr, Params{Kernel: RBF})
	if err != nil {
		t.Fatal(err)
	}
	if acc := m.Accuracy(xTe, yTe); acc < 0.95 {
		t.Errorf("MVP holdout accuracy = %v, want ≥ 0.95", acc)
	}
}

func TestMVPErrors(t *testing.T) {
	if _, err := trainMVP(nil, nil, Params{}); err == nil {
		t.Error("empty set should error")
	}
	if _, err := trainMVP([][]float64{{1}}, []int{1}, Params{}); err == nil {
		t.Error("single-class set should error")
	}
	if _, err := trainMVP([][]float64{{1}, {2, 3}}, []int{1, -1}, Params{}); err == nil {
		t.Error("ragged rows should error")
	}
	if _, err := trainMVP([][]float64{{1}, {2}}, []int{1, 2}, Params{}); err == nil {
		t.Error("bad label should error")
	}
}

func TestDualObjectiveSane(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	x, y := blobs(rng, 100, 3, 2)
	m, err := Train(x, y, Params{Kernel: RBF, Seed: 35})
	if err != nil {
		t.Fatal(err)
	}
	obj := m.dualObjective()
	if math.IsNaN(obj) || obj <= 0 {
		t.Errorf("dual objective = %v, want positive finite", obj)
	}
}
