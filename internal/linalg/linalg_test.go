package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(0, 0, 1)
	m.Set(1, 2, 5)
	if m.At(0, 0) != 1 || m.At(1, 2) != 5 {
		t.Fatal("Set/At mismatch")
	}
	row := m.Row(1)
	if len(row) != 3 || row[2] != 5 {
		t.Fatalf("Row = %v", row)
	}
	c := m.Clone()
	c.Set(0, 0, 9)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone aliases original")
	}
}

func TestNewMatrixPanicsOnBadDims(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for 0x3 matrix")
		}
	}()
	NewMatrix(0, 3)
}

func TestVectorOps(t *testing.T) {
	a := []float64{3, 4}
	if Dot(a, a) != 25 {
		t.Error("Dot wrong")
	}
	y := []float64{1, 1}
	AXPY(2, []float64{1, 2}, y)
	if y[0] != 3 || y[1] != 5 {
		t.Errorf("AXPY = %v", y)
	}
}

func TestCovarianceKnown(t *testing.T) {
	// Two perfectly correlated dims.
	x := NewMatrix(3, 2)
	for i, v := range []float64{1, 2, 2, 4, 3, 6} {
		x.Data[i] = v
	}
	cov, means, err := Covariance(x)
	if err != nil {
		t.Fatal(err)
	}
	if means[0] != 2 || means[1] != 4 {
		t.Fatalf("means = %v", means)
	}
	if cov.At(0, 0) != 1 || cov.At(1, 1) != 4 || cov.At(0, 1) != 2 || cov.At(1, 0) != 2 {
		t.Fatalf("cov = %+v", cov)
	}
	if _, _, err := Covariance(NewMatrix(1, 2)); err == nil {
		t.Fatal("covariance of a single sample accepted")
	}
}

func TestSymEigenDiagonal(t *testing.T) {
	a := NewMatrix(3, 3)
	a.Set(0, 0, 1)
	a.Set(1, 1, 3)
	a.Set(2, 2, 2)
	res, err := SymEigen(a)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{3, 2, 1}
	for i, w := range want {
		if math.Abs(res.Values[i]-w) > 1e-10 {
			t.Errorf("eigenvalue %d = %v, want %v", i, res.Values[i], w)
		}
	}
}

func TestSymEigen2x2Known(t *testing.T) {
	// [[2,1],[1,2]] has eigenvalues 3 and 1.
	a := NewMatrix(2, 2)
	a.Set(0, 0, 2)
	a.Set(0, 1, 1)
	a.Set(1, 0, 1)
	a.Set(1, 1, 2)
	res, err := SymEigen(a)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Values[0]-3) > 1e-10 || math.Abs(res.Values[1]-1) > 1e-10 {
		t.Fatalf("values = %v", res.Values)
	}
	// Eigenvector for 3 is (1,1)/sqrt2 up to sign.
	v := res.Vectors[0]
	if math.Abs(math.Abs(v[0])-math.Sqrt2/2) > 1e-9 || math.Abs(v[0]-v[1]) > 1e-9 {
		t.Fatalf("vector = %v", v)
	}
}

func TestSymEigenRejectsBadInput(t *testing.T) {
	if _, err := SymEigen(NewMatrix(2, 3)); err == nil {
		t.Error("non-square accepted")
	}
	a := NewMatrix(2, 2)
	a.Set(0, 1, 1) // asymmetric
	if _, err := SymEigen(a); err == nil {
		t.Error("asymmetric accepted")
	}
}

// residual returns max_i |A v_i - lambda_i v_i| over all eigenpairs.
func residual(a *Matrix, res *EigenResult) float64 {
	var worst float64
	for k := range res.Values {
		for i := 0; i < a.Rows; i++ {
			r := math.Abs(Dot(a.Row(i), res.Vectors[k]) - res.Values[k]*res.Vectors[k][i])
			if r > worst {
				worst = r
			}
		}
	}
	return worst
}

func randomSymmetric(rng *rand.Rand, n int) *Matrix {
	a := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := rng.NormFloat64()
			a.Set(i, j, v)
			a.Set(j, i, v)
		}
	}
	return a
}

// Property: for random symmetric matrices, A v = lambda v holds, the trace
// equals the eigenvalue sum, and eigenvectors are orthonormal.
func TestPropertySymEigenInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		n := 2 + rng.Intn(8)
		a := randomSymmetric(rng, n)
		res, err := SymEigen(a)
		if err != nil {
			t.Fatal(err)
		}
		if r := residual(a, res); r > 1e-8 {
			t.Fatalf("trial %d: residual %v", trial, r)
		}
		var trace, sum float64
		for i := 0; i < n; i++ {
			trace += a.At(i, i)
			sum += res.Values[i]
		}
		if math.Abs(trace-sum) > 1e-8 {
			t.Fatalf("trial %d: trace %v != eigenvalue sum %v", trial, trace, sum)
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				d := Dot(res.Vectors[i], res.Vectors[j])
				want := 0.0
				if i == j {
					want = 1
				}
				if math.Abs(d-want) > 1e-8 {
					t.Fatalf("trial %d: <v%d,v%d> = %v", trial, i, j, d)
				}
			}
		}
		for i := 1; i < n; i++ {
			if res.Values[i] > res.Values[i-1]+1e-12 {
				t.Fatalf("trial %d: eigenvalues not sorted: %v", trial, res.Values)
			}
		}
	}
}

// Property: Covariance matrices are symmetric positive semi-definite
// (checked via eigenvalues) for random data.
func TestPropertyCovariancePSD(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(20)
		d := 2 + rng.Intn(5)
		x := NewMatrix(n, d)
		for i := range x.Data {
			x.Data[i] = rng.NormFloat64() * 10
		}
		cov, _, err := Covariance(x)
		if err != nil || !cov.IsSymmetric(1e-9) {
			return false
		}
		res, err := SymEigen(cov)
		if err != nil {
			return false
		}
		for _, lv := range res.Values {
			if lv < -1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
