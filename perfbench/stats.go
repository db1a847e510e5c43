package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile before the
// benchmark reports it: a tail figure resting on fewer is noise.
const minBeyond = 10

// percentileLadder lists the percentiles a tail figure may be reported
// at, lowest first.
var percentileLadder = []float64{0.5, 0.9, 0.99, 0.999}

// highestPercentile returns the highest ladder percentile with at least
// minBeyond of n samples beyond it, and false when even the median has
// fewer.
func highestPercentile(n int) (float64, bool) {
	best, ok := 0.0, false
	for _, p := range percentileLadder {
		if float64(n)*(1-p) >= minBeyond-1e-9 {
			best, ok = p, true
		}
	}
	return best, ok
}

// percentile returns the nearest-rank p-quantile of xs (0 for none).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

// median returns the middle of xs, averaging the two middle values of
// an even-sized sample (0 for none).
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns xs at percentile want when the sample supports it.
// Otherwise it falls back to the highest percentile the sample does
// support, and to the maximum when it supports none. It also returns
// the percentile used (1 for the maximum).
func tail(xs []float64, want float64) (value, used float64) {
	used = 1
	if p, ok := highestPercentile(len(xs)); ok {
		used = min(p, want)
	}
	return percentile(xs, used), used
}

// sum adds xs.
func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
