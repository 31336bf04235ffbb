package main

import "testing"

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[n-1-i] = float64(i + 1) // unsorted on purpose
	}
	return xs
}

func TestTailIsHighestPercentileWithTenSamplesAbove(t *testing.T) {
	for _, tc := range []struct {
		n         int
		value, pc float64
	}{
		{1000, 990, 99},
		{100, 90, 90},
		{11, 1, 100.0 / 11},
		{5, 5, 100}, // too few samples: the maximum
	} {
		v, pct := tail(seq(tc.n))
		if v != tc.value || pct != tc.pc {
			t.Errorf("tail(%d samples) = %v at p%v, want %v at p%v", tc.n, v, pct, tc.value, tc.pc)
		}
		if tc.n > tailSamples {
			above := 0
			for _, x := range seq(tc.n) {
				if x > v {
					above++
				}
			}
			if above != tailSamples {
				t.Errorf("tail(%d samples) has %d samples above it, want %d", tc.n, above, tailSamples)
			}
		}
	}
}

// The reference values come from Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{seq(10), 2.75, 5.5, 8.25},
		{[]float64{1, 2, 3, 4}, 1.25, 2.5, 3.75},
		{[]float64{5, 1, 4}, 1, 4, 5},
		{[]float64{3, 1}, 0.5, 2, 3.5},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || q2 != tc.q2 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.xs, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}
