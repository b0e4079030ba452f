package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a tail percentile before
// it is reported: a p90 needs at least 100 samples, a p99 at least 1000.
const minBeyond = 10

// median returns the middle value of xs (the mean of the two middle
// values for an even count); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank q-quantile of xs (0 < q < 1) and
// whether at least minBeyond samples lie beyond it.  A tail percentile
// with fewer samples past it is one or two outliers, not a tail.
func percentile(xs []float64, q float64) (float64, bool) {
	if len(xs) == 0 {
		return 0, false
	}
	s := sorted(xs)
	rank := int(math.Ceil(q * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1], len(s)-rank >= minBeyond
}

// quartiles returns the first and third quartile of xs by the same rule
// as Python's statistics.quantiles(xs, n=4) (the "exclusive" method), so
// spreads computed here match an external check of the same values.
// With fewer than two samples both quartiles are the single value.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
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

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
