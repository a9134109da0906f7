// Package linalg provides the small dense linear-algebra kernels the
// XPro training pipeline needs: dot products, symmetric positive-definite
// solves (Cholesky) and least squares via the normal equations. The
// random-subspace classifier's weighted-voting fusion is "trained by the
// least square method" (§4.4); that solve happens here.
package linalg

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when a system is (numerically) singular.
var ErrSingular = errors.New("linalg: singular matrix")

// Dot returns the inner product of a and b. The slices must be the same
// length.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("linalg: Dot length mismatch %d vs %d", len(a), len(b)))
	}
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len = Rows*Cols
}

// NewMatrix allocates a zero matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic("linalg: negative dimension")
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a view of row i (shared storage).
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// MulVec returns m·x.
func (m *Matrix) MulVec(x []float64) []float64 {
	if len(x) != m.Cols {
		panic(fmt.Sprintf("linalg: MulVec dimension mismatch %d vs %d", len(x), m.Cols))
	}
	out := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		out[i] = Dot(m.Row(i), x)
	}
	return out
}

// Transpose returns mᵀ as a new matrix.
func (m *Matrix) Transpose() *Matrix {
	t := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			t.Set(j, i, m.At(i, j))
		}
	}
	return t
}

// Mul returns m·n as a new matrix.
func (m *Matrix) Mul(n *Matrix) *Matrix {
	if m.Cols != n.Rows {
		panic(fmt.Sprintf("linalg: Mul dimension mismatch %d vs %d", m.Cols, n.Rows))
	}
	out := NewMatrix(m.Rows, n.Cols)
	for i := 0; i < m.Rows; i++ {
		for k := 0; k < m.Cols; k++ {
			a := m.At(i, k)
			if a == 0 {
				continue
			}
			for j := 0; j < n.Cols; j++ {
				out.Data[i*out.Cols+j] += a * n.At(k, j)
			}
		}
	}
	return out
}

// CholeskySolve solves A·x = b for symmetric positive-definite A,
// overwriting nothing. It returns ErrSingular when A is not (numerically)
// positive definite.
func CholeskySolve(a *Matrix, b []float64) ([]float64, error) {
	n := a.Rows
	if a.Cols != n || len(b) != n {
		return nil, fmt.Errorf("linalg: CholeskySolve needs square A and matching b (A %dx%d, b %d)", a.Rows, a.Cols, len(b))
	}
	// Factor A = L·Lᵀ.
	l := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			sum := a.At(i, j)
			for k := 0; k < j; k++ {
				sum -= l.At(i, k) * l.At(j, k)
			}
			if i == j {
				if sum <= 1e-14 {
					return nil, ErrSingular
				}
				l.Set(i, i, math.Sqrt(sum))
			} else {
				l.Set(i, j, sum/l.At(j, j))
			}
		}
	}
	// Forward solve L·y = b.
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		sum := b[i]
		for k := 0; k < i; k++ {
			sum -= l.At(i, k) * y[k]
		}
		y[i] = sum / l.At(i, i)
	}
	// Back solve Lᵀ·x = y.
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		sum := y[i]
		for k := i + 1; k < n; k++ {
			sum -= l.At(k, i) * x[k]
		}
		x[i] = sum / l.At(i, i)
	}
	return x, nil
}

// LeastSquares solves min‖A·x − b‖₂ via the regularized normal equations
// (AᵀA + λI)x = Aᵀb. The ridge term λ makes the fusion-weight solve
// robust when base-classifier scores are collinear (common when several
// base SVMs share most of their feature subset).
func LeastSquares(a *Matrix, b []float64, lambda float64) ([]float64, error) {
	if len(b) != a.Rows {
		return nil, fmt.Errorf("linalg: LeastSquares b length %d, want %d", len(b), a.Rows)
	}
	if lambda < 0 {
		return nil, fmt.Errorf("linalg: negative ridge %v", lambda)
	}
	at := a.Transpose()
	ata := at.Mul(a)
	for i := 0; i < ata.Rows; i++ {
		ata.Data[i*ata.Cols+i] += lambda
	}
	atb := at.MulVec(b)
	x, err := CholeskySolve(ata, atb)
	if err != nil {
		// Retry with a stronger ridge before giving up; keeps training
		// deterministic rather than failing on a degenerate fold.
		for boost := math.Max(lambda, 1e-8) * 10; boost < 1; boost *= 10 {
			for i := 0; i < ata.Rows; i++ {
				ata.Data[i*ata.Cols+i] += boost
			}
			if x, err = CholeskySolve(ata, atb); err == nil {
				return x, nil
			}
		}
		return nil, err
	}
	return x, nil
}
