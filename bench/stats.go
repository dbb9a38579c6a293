package main

import (
	"math"
	"sort"
)

// sortedCopy returns xs sorted ascending without touching the caller's slice.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile is the linearly interpolated p-quantile (0 ≤ p ≤ 1) of xs,
// NaN when xs is empty.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	h := p * float64(len(s)-1)
	lo := int(math.Floor(h))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (h-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// quartiles returns Q1, median and Q3 the way Python's
// statistics.quantiles(xs, n=4) (the default "exclusive" method) computes
// the outer two, so spreads printed here match a reader's own check.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	switch len(s) {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	n := len(s)
	m := n + 1
	q := func(i int) float64 {
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
	return q(1), median(s), q(3)
}

// mean is the arithmetic mean of xs, NaN when xs is empty.
func mean(xs []float64) float64 { return sum(xs) / float64(len(xs)) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio is a/b, or 0 when nothing was attempted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
