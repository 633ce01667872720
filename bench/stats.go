package main

import (
	"sort"

	"entk/internal/stats"
)

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between closest ranks; 0 for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0]
	}
	pos := p / 100 * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// spreadPct is the interquartile range over the median, in percent —
// the run-to-run noise figure printed beside every repeated timing.
// With fewer than four samples the range is max-min.
func spreadPct(xs []float64) float64 {
	m := median(xs)
	if len(xs) < 2 || m == 0 {
		return 0
	}
	lo, hi := percentile(xs, 25), percentile(xs, 75)
	if len(xs) < 4 {
		lo, hi = percentile(xs, 0), percentile(xs, 100)
	}
	return 100 * (hi - lo) / m
}

// indexSlope is the least-squares slope of ys against their index: how
// much each successive operation costs more than the one before it.
// Zero for a stationary series (and for fewer than two samples).
func indexSlope(ys []float64) float64 {
	xs := make([]float64, len(ys))
	for i := range xs {
		xs[i] = float64(i)
	}
	slope, _, _, err := stats.LinearFit(xs, ys)
	if err != nil {
		return 0
	}
	return slope
}
