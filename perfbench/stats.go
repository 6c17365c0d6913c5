package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile: a
// percentile read from fewer is one outlier away from a different value.
const minBeyond = 10

// sample is a latency sample in milliseconds. Failed operations are added as
// +Inf, so a failure counts as missing every latency bound.
type sample []float64

func (s *sample) add(d time.Duration) { *s = append(*s, float64(d)/1e6) }

func (s *sample) fail() { *s = append(*s, math.Inf(1)) }

// rank is the 1-based nearest-rank position of the p-quantile among n
// values: the smallest r with r/n >= p.
func rank(n int, p float64) int {
	r := int(math.Ceil(p*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// beyond is the number of samples above the nearest-rank p-quantile.
func beyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - rank(n, p)
}

// enough reports whether a sample of n values supports reporting its
// p-quantile: at least minBeyond samples must lie beyond it.
func enough(n int, p float64) bool { return beyond(n, p) >= minBeyond }

// percentile is the nearest-rank p-quantile of xs (0 < p <= 1); xs need not
// be sorted. An empty sample yields NaN.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(len(s), p)-1]
}

// median is the middle value of xs (mean of the middle two for even n), the
// statistic the steadiness check compares between sets of runs.
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

// quartiles returns Q1 and Q3 exactly as Python's
// statistics.quantiles(xs, n=4) computes them (the default "exclusive"
// method), so the steadiness check agrees with an outside check made that
// way. Fewer than two values yield NaN.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n < 2 {
		return math.NaN(), math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// spread is the interquartile range as a share of the median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return (q3 - q1) / median(xs)
}
