package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported percentile: a
// percentile with fewer samples beyond it is decided by a handful of
// outliers and is refused.
const minBeyond = 10

// eps absorbs floating-point error in percentile arithmetic (100-99.9 is
// not exactly 0.1).
const eps = 1e-9

// supports reports whether n samples support the p-th percentile.
func supports(n int, p float64) bool {
	return float64(n)*(100-p)/100 >= minBeyond-eps
}

// percentile returns the nearest-rank p-th percentile of xs, or an error
// when the sample is too small to support it.
func percentile(xs []float64, p float64) (float64, error) {
	if !supports(len(xs), p) {
		return 0, fmt.Errorf("p%g needs %d samples beyond it; %d samples give %.1f",
			p, minBeyond, len(xs), float64(len(xs))*(100-p)/100)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p/100*float64(len(s))-eps)) - 1
	if i < 0 {
		i = 0
	}
	return s[i], nil
}

// levels are the percentiles a tail is reported at, lowest first.
var levels = []float64{50, 75, 90, 95, 99, 99.9}

// highestLevel returns the highest percentile in levels that n samples
// support, or 0 when n supports none.
func highestLevel(n int) float64 {
	best := 0.0
	for _, p := range levels {
		if supports(n, p) {
			best = p
		}
	}
	return best
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count); NaN for an empty sample.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
