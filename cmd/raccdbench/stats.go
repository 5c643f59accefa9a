package main

import (
	"math"
	"sort"
)

// tailMinBeyond is how many samples must lie beyond a reported tail
// percentile: fewer and the "percentile" is one or two outliers.
const tailMinBeyond = 10

// quantile is the linearly interpolated q-quantile (0..1) of sorted xs,
// or 0 for no samples (a layer the workload does not exercise).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

// tail is the p95 by nearest rank (the value of rank ceil(0.95 n),
// 1-based) when at least tailMinBeyond samples lie beyond it, and
// otherwise the maximum, reported as p100. It carries its percentile and
// sample count.
type tailStat struct {
	Value      float64
	Percentile float64
	N          int
}

func tail(xs []float64) tailStat {
	n := len(xs)
	if n == 0 {
		return tailStat{}
	}
	s := sortedCopy(xs)
	k := int(math.Ceil(0.95 * float64(n)))
	if n-k < tailMinBeyond {
		return tailStat{Value: s[n-1], Percentile: 100, N: n}
	}
	return tailStat{Value: s[k-1], Percentile: 100 * float64(k) / float64(n), N: n}
}
