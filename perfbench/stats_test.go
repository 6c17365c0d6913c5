package main

import (
	"math"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: percentile must sort
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want float64
	}{
		{1, 0.5, 1},
		{2, 0.5, 1},   // rank ceil(1.0) = 1
		{3, 0.5, 2},   // rank ceil(1.5) = 2
		{10, 0.9, 9},  // rank 9, not 10
		{11, 0.9, 10}, // rank ceil(9.9) = 10
		{100, 0.9, 90},
		{100, 0.99, 99},
		{1000, 0.99, 990},
		{20, 1, 20},
	} {
		if got := percentile(seq(c.n), c.p); got != c.want {
			t.Errorf("percentile(1..%d, %g) = %g, want %g", c.n, c.p, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of an empty sample is not NaN")
	}
}

func TestPercentileCountsFailuresAsMissingTheBound(t *testing.T) {
	var s sample
	for i := 0; i < 9; i++ {
		s.add(time.Millisecond)
	}
	s.fail()
	if got := percentile(s, 0.9); got != 1 {
		t.Errorf("p90 with one failure in ten = %g, want 1", got)
	}
	s.fail()
	if got := percentile(s, 0.9); !math.IsInf(got, 1) {
		t.Errorf("p90 with two failures in eleven = %g, want +Inf", got)
	}
}

func TestEnoughSamplesBeyondPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{
		{19, 0.5, false}, // rank 10, 9 beyond
		{20, 0.5, true},  // rank 10, 10 beyond
		{99, 0.9, false}, // rank 90, 9 beyond
		{100, 0.9, true},
		{999, 0.99, false},
		{1000, 0.99, true},
		{0, 0.5, false},
	} {
		if got := enough(c.n, c.p); got != c.want {
			t.Errorf("enough(%d, %g) = %t (beyond %d), want %t", c.n, c.p, got, beyond(c.n, c.p), c.want)
		}
	}
}

// The expected values are what Python's statistics.quantiles(data, n=4)
// returns for the same data.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 7, 3}, 1.5, 9.25},
		{[]float64{5, 1}, 0, 6}, // extrapolated, as Python does
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, 3, 9},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %g, %g; want %g, %g", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-5.5/5.5) > 1e-12 {
		t.Errorf("spread = %g, want 1", got)
	}
}

func TestCompareSetsBoundsSpreadAndWorsening(t *testing.T) {
	higher := specMetric{Name: "sim_mips", Better: "higher", Bound: 0.1}
	steadyA := []float64{100, 101, 99, 100, 102}
	if _, ok := compareSets(higher, steadyA, []float64{98, 99, 100, 97, 99}); !ok {
		t.Error("a 1% drop within a 10% bound failed")
	}
	if _, ok := compareSets(higher, steadyA, []float64{85, 86, 84, 85, 86}); ok {
		t.Error("a 15% drop passed a 10% bound")
	}
	if _, ok := compareSets(higher, steadyA, []float64{60, 140, 100, 70, 130}); ok {
		t.Error("a set spreading beyond the bound passed")
	}
	setup := specMetric{Name: "setup_s", Better: "lower", Bound: 0.25}
	if _, ok := compareSets(setup, []float64{1, 1.5, 2, 1, 2}, []float64{1, 1.5, 2, 1, 2}); !ok {
		t.Error("setup_s spread was held to its bound")
	}
}
