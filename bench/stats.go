package main

import (
	"math"
	"sort"
	"time"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count) without reordering xs. It panics on an
// empty slice: every caller has at least one round's sample.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// sorted, and whether the sample is large enough to report it: a tail
// percentile needs at least ten samples beyond it, so p99 needs 1000
// samples and p90 needs 100. The median (p <= 50) is always reported.
func percentile(sorted []float64, p float64) (v float64, ok bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(float64(n)*p/100)) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= n {
		rank = n - 1
	}
	beyond := float64(n) * (100 - p) / 100
	return sorted[rank], p <= 50 || beyond >= 10
}

// sortedMicros converts durations to microseconds, ascending.
func sortedMicros(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Microsecond)
	}
	sort.Float64s(out)
	return out
}
