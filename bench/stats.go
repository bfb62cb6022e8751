package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of vals by linear
// interpolation between order statistics; 0 for an empty slice. vals is
// not modified.
func quantile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(vals []float64) float64 { return quantile(vals, 0.5) }

// tailPercentiles are the tail candidates pickTail chooses from.
var tailPercentiles = []float64{90, 95, 99, 99.9}

// pickTail returns the highest percentile that still has at least ten of
// the n samples beyond it (the choosing-metrics rule for reporting a
// tail), or 50 when even p90 does not.
func pickTail(n int) float64 {
	best := 50.0
	for _, p := range tailPercentiles {
		if float64(n)*(100-p)/100 >= 10-1e-9 { // 1e-9: 100-99.9 is not exact
			best = p
		}
	}
	return best
}

// ratio is a/b, or 0 when b is 0 (a layer the workload never enters).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// relDiff is |a-b| relative to the larger magnitude; 0 when both are 0.
func relDiff(a, b float64) float64 {
	m := math.Max(math.Abs(a), math.Abs(b))
	if m == 0 {
		return 0
	}
	return math.Abs(a-b) / m
}
