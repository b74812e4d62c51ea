package main

import (
	"math"
	"sort"
	"time"
)

// Quantile is one percentile of a sample set together with its base:
// how many samples there were and how many lie strictly above it, so a
// reader can tell a p99 over 15000 samples from one over 40.
type Quantile struct {
	Value  float64
	N      int
	Beyond int
}

// quantile returns the nearest-rank q-quantile (0 < q <= 1) of sorted,
// which must be in ascending order. An empty set yields the zero value.
func quantile(sorted []float64, q float64) Quantile {
	n := len(sorted)
	if n == 0 {
		return Quantile{}
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	v := sorted[rank-1]
	beyond := n - sort.Search(n, func(i int) bool { return sorted[i] > v })
	return Quantile{Value: v, N: n, Beyond: beyond}
}

// durationsMs converts durations to sorted milliseconds.
func durationsMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	sort.Float64s(out)
	return out
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count); xs is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}

// Ratio is a share printed with its numerator and denominator.
type Ratio struct {
	Num, Den int64
}

// Value is Num/Den, zero for an empty base.
func (r Ratio) Value() float64 {
	if r.Den == 0 {
		return 0
	}
	return float64(r.Num) / float64(r.Den)
}
