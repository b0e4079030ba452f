package main

import "testing"

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{4}, 4},
		{[]float64{9, 1, 5}, 5},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

// TestPercentileTailRule: a p90 is a tail only with at least ten
// samples beyond it, so 100 samples give one and 99 do not.
func TestPercentileTailRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: percentile must sort
		}
		return xs
	}
	if v, ok := percentile(seq(100), 0.90); v != 90 || !ok {
		t.Errorf("p90 of 1..100 = %v, %v; want 90, true", v, ok)
	}
	if v, ok := percentile(seq(99), 0.90); v != 90 || ok {
		t.Errorf("p90 of 1..99 = %v, %v; want 90, false (9 samples beyond)", v, ok)
	}
	if v, ok := percentile(seq(1000), 0.99); v != 990 || !ok {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990, true", v, ok)
	}
	if v, ok := percentile(seq(10), 0.50); v != 5 || ok {
		t.Errorf("p50 of 1..10 = %v, %v; want 5, false", v, ok)
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("percentile of no samples claims a tail")
	}
}

// TestQuartilesMatchPython checks quartiles against values printed by
// Python's statistics.quantiles(xs, n=4), the rule the spread of a set
// of runs is judged by.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3.5, 1.25, 9, 4}, 1.8125, 7.75},
		{[]float64{7, 1}, -0.5, 8.5},
		{[]float64{5, 1, 4, 2, 3, 9, 8}, 2, 8},
	} {
		if q1, q3 := quartiles(c.xs); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}
