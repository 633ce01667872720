// Package linalg implements the dense linear algebra needed by the CoCo
// analysis kernel (PCA): a dense matrix type, a symmetric Jacobi
// eigensolver, and basic vector operations. It is intentionally small and
// allocation-conscious rather than general.
package linalg

import (
	"errors"
	"fmt"
	"math"
)

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols
}

// NewMatrix returns a zeroed r x c matrix.
func NewMatrix(r, c int) *Matrix {
	if r <= 0 || c <= 0 {
		panic(fmt.Sprintf("linalg: invalid dimensions %dx%d", r, c))
	}
	return &Matrix{Rows: r, Cols: c, Data: make([]float64, r*c)}
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, x float64) { m.Data[i*m.Cols+j] = x }

// Row returns a view (not a copy) of row i.
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// IsSymmetric reports whether m is square and symmetric within tol.
func (m *Matrix) IsSymmetric(tol float64) bool {
	if m.Rows != m.Cols {
		return false
	}
	for i := 0; i < m.Rows; i++ {
		for j := i + 1; j < m.Cols; j++ {
			if math.Abs(m.At(i, j)-m.At(j, i)) > tol {
				return false
			}
		}
	}
	return true
}

// Dot returns the inner product of equal-length vectors.
func Dot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// AXPY computes y += a*x in place.
func AXPY(a float64, x, y []float64) {
	for i := range x {
		y[i] += a * x[i]
	}
}

// Covariance returns the d x d sample covariance matrix of the rows of x
// (n samples of dimension d), along with the column means. It requires at
// least two rows.
func Covariance(x *Matrix) (*Matrix, []float64, error) {
	n, d := x.Rows, x.Cols
	if n < 2 {
		return nil, nil, errors.New("linalg: covariance needs >= 2 samples")
	}
	means := make([]float64, d)
	for i := 0; i < n; i++ {
		row := x.Row(i)
		for j, v := range row {
			means[j] += v
		}
	}
	for j := range means {
		means[j] /= float64(n)
	}
	cov := NewMatrix(d, d)
	for i := 0; i < n; i++ {
		row := x.Row(i)
		for a := 0; a < d; a++ {
			da := row[a] - means[a]
			for b := a; b < d; b++ {
				cov.Data[a*d+b] += da * (row[b] - means[b])
			}
		}
	}
	inv := 1 / float64(n-1)
	for a := 0; a < d; a++ {
		for b := a; b < d; b++ {
			v := cov.Data[a*d+b] * inv
			cov.Data[a*d+b] = v
			cov.Data[b*d+a] = v
		}
	}
	return cov, means, nil
}

// EigenResult holds the eigendecomposition of a symmetric matrix with
// eigenvalues sorted in descending order and Vectors[k] the unit
// eigenvector for Values[k].
type EigenResult struct {
	Values  []float64
	Vectors [][]float64
}

// SymEigen computes the full eigendecomposition of a symmetric matrix
// using the cyclic Jacobi method. It converges quadratically and is exact
// enough (off-diagonal norm < 1e-12 * ||A||) for the small matrices used by
// the analysis kernels.
func SymEigen(a *Matrix) (*EigenResult, error) {
	if a.Rows != a.Cols {
		return nil, errors.New("linalg: SymEigen requires a square matrix")
	}
	if !a.IsSymmetric(1e-9) {
		return nil, errors.New("linalg: SymEigen requires a symmetric matrix")
	}
	n := a.Rows
	m := a.Clone()
	// v accumulates the rotations; starts as identity.
	v := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		v.Set(i, i, 1)
	}
	var frob float64
	for _, x := range m.Data {
		frob += x * x
	}
	tol := 1e-24 * frob
	if tol == 0 {
		tol = 1e-300
	}
	const maxSweeps = 100
	for sweep := 0; sweep < maxSweeps; sweep++ {
		var off float64
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				off += m.At(i, j) * m.At(i, j)
			}
		}
		if off < tol {
			break
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := m.At(p, q)
				if apq == 0 {
					continue
				}
				app, aqq := m.At(p, p), m.At(q, q)
				theta := (aqq - app) / (2 * apq)
				t := math.Copysign(1, theta) / (math.Abs(theta) + math.Sqrt(theta*theta+1))
				c := 1 / math.Sqrt(t*t+1)
				s := t * c
				rotate(m, v, p, q, c, s)
			}
		}
	}
	res := &EigenResult{Values: make([]float64, n), Vectors: make([][]float64, n)}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	// Sort eigenpairs by descending eigenvalue (selection sort: n is small).
	for i := 0; i < n; i++ {
		best := i
		for j := i + 1; j < n; j++ {
			if m.At(order[j], order[j]) > m.At(order[best], order[best]) {
				best = j
			}
		}
		order[i], order[best] = order[best], order[i]
	}
	for k, idx := range order {
		res.Values[k] = m.At(idx, idx)
		vec := make([]float64, n)
		for i := 0; i < n; i++ {
			vec[i] = v.At(i, idx)
		}
		res.Vectors[k] = vec
	}
	return res, nil
}

// rotate applies a Jacobi rotation in the (p, q) plane to m and
// accumulates it into v.
func rotate(m, v *Matrix, p, q int, c, s float64) {
	n := m.Rows
	for i := 0; i < n; i++ {
		mip, miq := m.At(i, p), m.At(i, q)
		m.Set(i, p, c*mip-s*miq)
		m.Set(i, q, s*mip+c*miq)
	}
	for j := 0; j < n; j++ {
		mpj, mqj := m.At(p, j), m.At(q, j)
		m.Set(p, j, c*mpj-s*mqj)
		m.Set(q, j, s*mpj+c*mqj)
	}
	for i := 0; i < n; i++ {
		vip, viq := v.At(i, p), v.At(i, q)
		v.Set(i, p, c*vip-s*viq)
		v.Set(i, q, s*vip+c*viq)
	}
}
