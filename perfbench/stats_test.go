package main

import "testing"

func TestHighestPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{n: 19, ok: false},
		{n: 20, want: 0.5, ok: true},
		{n: 99, want: 0.5, ok: true},
		{n: 100, want: 0.9, ok: true},
		{n: 999, want: 0.9, ok: true},
		{n: 1000, want: 0.99, ok: true},
		{n: 1500, want: 0.99, ok: true},
		{n: 10000, want: 0.999, ok: true},
	} {
		got, ok := highestPercentile(tc.n)
		if got != tc.want || ok != tc.ok {
			t.Errorf("highestPercentile(%d) = %v, %v; want %v, %v", tc.n, got, ok, tc.want, tc.ok)
		}
	}
}

func TestTail(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending, so sorting matters
		}
		return xs
	}
	for _, tc := range []struct {
		n          int
		want       float64
		value, use float64
	}{
		{n: 3, want: 0.99, value: 3, use: 1},          // too few for any percentile: the maximum
		{n: 40, want: 0.99, value: 20, use: 0.5},      // supports only the median
		{n: 200, want: 0.9, value: 180, use: 0.9},     // supports p90 with 20 beyond
		{n: 1500, want: 0.99, value: 1485, use: 0.99}, // 15 beyond p99
		{n: 20000, want: 0.99, value: 19800, use: 0.99},
	} {
		v, used := tail(seq(tc.n), tc.want)
		if v != tc.value || used != tc.use {
			t.Errorf("tail(n=%d, %v) = %v at %v; want %v at %v", tc.n, tc.want, v, used, tc.value, tc.use)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("empty median = %v", got)
	}
}
