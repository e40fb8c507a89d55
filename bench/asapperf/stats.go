package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// xs, or 0 for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	return s[max(rank(p, len(s)), 1)-1]
}

// rank is the 1-based nearest rank of the p-th percentile of n samples.
func rank(p float64, n int) int {
	// The tolerance keeps products such as 0.9*100 from rounding up.
	return min(int(math.Ceil(p*float64(n)/100-1e-9)), n)
}

// tailLadder is the set of percentiles a tail latency is reported at.
var tailLadder = []float64{50, 75, 90, 95, 99, 99.9}

// tailPercentile returns the highest percentile on tailLadder that still
// has at least ten of n samples beyond it, so a reported tail is never
// decided by a handful of samples. It returns 50 when none qualifies.
func tailPercentile(n int) float64 {
	best := tailLadder[0]
	for _, p := range tailLadder {
		if n-rank(p, n) >= 10 {
			best = p
		}
	}
	return best
}

// quartiles returns the first quartile, median and third quartile of xs
// with the same interpolation as Python's statistics.quantiles(xs, n=4)
// (the "exclusive" method), which is how the benchmark's spread is judged.
// With fewer than two values every quartile is that value.
func quartiles(xs []float64) (q1, med, q3 float64) {
	switch len(xs) {
	case 0:
		return 0, 0, 0
	case 1:
		return xs[0], xs[0], xs[0]
	}
	s := sortedCopy(xs)
	ld := len(s)
	m := ld + 1
	q := make([]float64, 3)
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = min(max(j, 1), ld-1)
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// median returns the middle value of xs (the mean of the middle two for
// an even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// spread is the interquartile range as a share of the median.
func spread(xs []float64) float64 {
	q1, med, q3 := quartiles(xs)
	if med == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(med)
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
