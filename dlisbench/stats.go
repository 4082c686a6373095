package main

import (
	"math"
	"sort"
)

// minTail is the tail rule: a percentile is reported only when at
// least this many samples lie beyond it.
const minTail = 10

// percentile returns the nearest-rank p-th percentile (0 < p < 100) of
// samples and whether the sample supports it under the tail rule. The
// slice is sorted in place.
func percentile(samples []float64, p float64) (float64, bool) {
	n := len(samples)
	if n == 0 {
		return 0, false
	}
	sort.Float64s(samples)
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if n-rank < minTail {
		return samples[rank-1], false
	}
	return samples[rank-1], true
}

// tailPercentile returns p when the sample supports it, otherwise the
// highest percentile with minTail samples beyond it, along with the
// percentile actually used. ok is false when even that does not exist
// (fewer than minTail+1 samples).
func tailPercentile(samples []float64, p float64) (v, used float64, ok bool) {
	if v, ok := percentile(samples, p); ok {
		return v, p, true
	}
	n := len(samples)
	if n <= minTail {
		return 0, 0, false
	}
	rank := n - minTail // samples is sorted by percentile
	return samples[rank-1], 100 * float64(rank) / float64(n), true
}

// median returns the middle value of samples (the mean of the middle
// two for even counts). The slice is sorted in place.
func median(samples []float64) float64 {
	n := len(samples)
	if n == 0 {
		return 0
	}
	sort.Float64s(samples)
	if n%2 == 1 {
		return samples[n/2]
	}
	return (samples[n/2-1] + samples[n/2]) / 2
}
