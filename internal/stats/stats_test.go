package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMeanVarStd(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); got != 5 {
		t.Errorf("Mean = %v, want 5", got)
	}
	if got := Mean(nil); got != 0 {
		t.Errorf("Mean(nil) = %v, want 0", got)
	}
}

func TestMinMaxMedian(t *testing.T) {
	xs := []float64{3, 1, 4, 1, 5}
	mn, err := Min(xs)
	if err != nil || mn != 1 {
		t.Errorf("Min = %v,%v", mn, err)
	}
	mx, err := Max(xs)
	if err != nil || mx != 5 {
		t.Errorf("Max = %v,%v", mx, err)
	}
	if _, err := Min(nil); err != ErrEmpty {
		t.Errorf("Min(nil) err = %v, want ErrEmpty", err)
	}
	if _, err := Max(nil); err != ErrEmpty {
		t.Errorf("Max(nil) err = %v, want ErrEmpty", err)
	}
}

func TestLinearFitExact(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	y := []float64{5, 7, 9, 11} // y = 2x + 3
	slope, intercept, r2, err := LinearFit(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(slope, 2, 1e-12) || !almost(intercept, 3, 1e-12) || !almost(r2, 1, 1e-12) {
		t.Errorf("fit = %v,%v,%v", slope, intercept, r2)
	}
}

func TestLinearFitConstantY(t *testing.T) {
	slope, intercept, r2, err := LinearFit([]float64{1, 2, 3}, []float64{4, 4, 4})
	if err != nil {
		t.Fatal(err)
	}
	if slope != 0 || intercept != 4 || r2 != 1 {
		t.Errorf("constant fit = %v,%v,%v", slope, intercept, r2)
	}
}

func TestLinearFitErrors(t *testing.T) {
	if _, _, _, err := LinearFit([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("mismatched lengths accepted")
	}
	if _, _, _, err := LinearFit([]float64{1}, []float64{1}); err == nil {
		t.Error("single point accepted")
	}
	if _, _, _, err := LinearFit([]float64{2, 2}, []float64{1, 3}); err == nil {
		t.Error("degenerate x accepted")
	}
}

func TestLogLogSlopeIdealStrongScaling(t *testing.T) {
	cores := []float64{64, 128, 256, 512, 1024}
	times := make([]float64, len(cores))
	for i, c := range cores {
		times[i] = 1e6 / c
	}
	s, err := LogLogSlope(cores, times)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(s, -1, 1e-9) {
		t.Errorf("slope = %v, want -1", s)
	}
	if _, err := LogLogSlope([]float64{0, 1}, []float64{1, 1}); err == nil {
		t.Error("non-positive x accepted")
	}
}

func TestRelSpread(t *testing.T) {
	got, err := RelSpread([]float64{10, 10, 10})
	if err != nil || got != 0 {
		t.Errorf("flat spread = %v,%v", got, err)
	}
	got, err = RelSpread([]float64{9, 11})
	if err != nil || !almost(got, 0.2, 1e-12) {
		t.Errorf("spread = %v,%v, want 0.2", got, err)
	}
	if _, err := RelSpread(nil); err != ErrEmpty {
		t.Errorf("RelSpread(nil) err = %v", err)
	}
	if _, err := RelSpread([]float64{-1, 1}); err == nil {
		t.Error("zero-mean spread accepted")
	}
}

// Property: mean lies within [min, max].
func TestPropertyMeanBounds(t *testing.T) {
	f := func(xs []float64) bool {
		clean := xs[:0:0]
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e6 {
				clean = append(clean, x)
			}
		}
		if len(clean) == 0 {
			return true
		}
		m := Mean(clean)
		mn, _ := Min(clean)
		mx, _ := Max(clean)
		return m >= mn-1e-9 && m <= mx+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: LinearFit recovers slope/intercept exactly on noiseless lines.
func TestPropertyLinearFitRecovers(t *testing.T) {
	f := func(a, b int8, n uint8) bool {
		k := int(n%16) + 2
		slope := float64(a)
		intercept := float64(b)
		x := make([]float64, k)
		y := make([]float64, k)
		for i := 0; i < k; i++ {
			x[i] = float64(i)
			y[i] = slope*x[i] + intercept
		}
		gs, gi, _, err := LinearFit(x, y)
		return err == nil && almost(gs, slope, 1e-6) && almost(gi, intercept, 1e-6)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
