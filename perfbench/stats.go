package main

import (
	"fmt"
	"math"
	"sort"
)

// minTail is how many samples must lie beyond a reported percentile:
// fewer and the percentile is a single outlier, not a tail estimate.
const minTail = 10

// percentile returns the nearest-rank p-th percentile of xs (sorted in
// place). It refuses unless at least minTail samples lie beyond it, so
// p99 needs 1000 samples.
func percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	if n == 0 || p <= 0 || p >= 100 {
		return 0, fmt.Errorf("percentile p%g of %d samples", p, n)
	}
	idx := int(math.Ceil(p/100*float64(n))) - 1
	if beyond := n - 1 - idx; beyond < minTail {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", p, n, beyond, minTail)
	}
	sort.Float64s(xs)
	return xs[idx], nil
}

// median returns the middle value of xs (sorted in place); 0 when empty.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	sort.Float64s(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio is a/b, or 0 when b is 0 (a layer the workload never called).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
