package main

import (
	"math"
	"sort"
)

// tailSamples is the number of samples that must lie beyond a reported
// percentile before it is trusted (choosing-metrics §1).
const tailSamples = 10

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of
// sorted, or 0 for an empty slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// supported reports whether the p-th percentile of n samples has at
// least tailSamples samples beyond it.
func supported(n int, p float64) bool {
	rank := int(math.Ceil(p / 100 * float64(n)))
	return n-rank >= tailSamples
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 { return percentile(sortedCopy(v), 50) }

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// worseBy returns by what share of base the value got worse (positive)
// or better (negative), given the metric's direction.
func worseBy(base, value float64, lowerIsBetter bool) float64 {
	if base == 0 {
		if value == 0 {
			return 0
		}
		return math.Inf(1)
	}
	d := (value - base) / math.Abs(base)
	if !lowerIsBetter {
		d = -d
	}
	return d
}
