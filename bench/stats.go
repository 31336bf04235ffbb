package main

import (
	"math"
	"sort"
)

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the middle sample, or the mean of the two middle samples.
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first quartile, median and third quartile the way
// Python's statistics.quantiles(xs, n=4) computes them (its default
// "exclusive" method), so spreads printed here match the ones the
// benchmark's acceptance rule computes. One sample gives three equal values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// tailSamples is how many samples must lie above a reported tail.
const tailSamples = 10

// tail is the highest percentile that still has tailSamples samples above
// it: the sample at rank n-11 of n sorted samples, reported as the
// percentile (n-10)/n. With 1000 samples that is p99; with fewer than 11
// no percentile qualifies and the maximum is reported as percentile 100.
func tail(xs []float64) (value, pct float64) {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return 0, 0
	}
	if n <= tailSamples {
		return s[n-1], 100
	}
	return s[n-tailSamples-1], 100 * float64(n-tailSamples) / float64(n)
}

// ratio divides, reading 0 for an empty denominator: a layer the workload
// never reached reports zero work.
func ratio(num, den float64) float64 {
	if den == 0 || math.IsNaN(num) || math.IsNaN(den) {
		return 0
	}
	return num / den
}
