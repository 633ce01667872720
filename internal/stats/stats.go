// Package stats provides the small set of descriptive statistics and
// regression helpers used by the experiment harness to characterise
// scaling behaviour (means, spreads, linear and log-log fits).
package stats

import (
	"errors"
	"math"
)

// ErrEmpty is returned by functions that need at least one sample.
var ErrEmpty = errors.New("stats: empty sample")

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Min returns the smallest element of xs.
func Min(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m, nil
}

// Max returns the largest element of xs.
func Max(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m, nil
}

// LinearFit fits y = slope*x + intercept by least squares and also returns
// the coefficient of determination r2. It requires len(x) == len(y) >= 2
// and at least two distinct x values.
func LinearFit(x, y []float64) (slope, intercept, r2 float64, err error) {
	if len(x) != len(y) {
		return 0, 0, 0, errors.New("stats: mismatched sample lengths")
	}
	if len(x) < 2 {
		return 0, 0, 0, errors.New("stats: need at least two points")
	}
	mx, my := Mean(x), Mean(y)
	var sxx, sxy, syy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return 0, 0, 0, errors.New("stats: x values are all identical")
	}
	slope = sxy / sxx
	intercept = my - slope*mx
	if syy == 0 {
		// y is constant: a horizontal fit explains everything.
		return slope, intercept, 1, nil
	}
	r2 = sxy * sxy / (sxx * syy)
	return slope, intercept, r2, nil
}

// LogLogSlope fits log(y) = a*log(x) + b and returns a. A slope of -1
// indicates ideal strong scaling (time halves when resources double); a
// slope of +1 indicates cost growing linearly with x. All inputs must be
// positive.
func LogLogSlope(x, y []float64) (float64, error) {
	lx := make([]float64, len(x))
	ly := make([]float64, len(y))
	for i := range x {
		if x[i] <= 0 || i >= len(y) || y[i] <= 0 {
			return 0, errors.New("stats: log-log fit requires positive values")
		}
		lx[i] = math.Log(x[i])
		ly[i] = math.Log(y[i])
	}
	slope, _, _, err := LinearFit(lx, ly)
	return slope, err
}

// RelSpread returns (max-min)/mean, a scale-free measure of how "flat" a
// series is. Weak-scaling checks assert a small relative spread.
func RelSpread(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	mn, _ := Min(xs)
	mx, _ := Max(xs)
	m := Mean(xs)
	if m == 0 {
		return 0, errors.New("stats: zero mean")
	}
	return (mx - mn) / m, nil
}
