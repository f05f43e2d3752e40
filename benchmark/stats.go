package main

import (
	"math"
	"sort"
)

// quantileSorted returns the q-quantile of an ascending slice by linear
// interpolation between order statistics (0 for an empty slice).
func quantileSorted(xs []float64, q float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	if lo >= n-1 {
		return xs[n-1]
	}
	frac := pos - float64(lo)
	return xs[lo]*(1-frac) + xs[lo+1]*frac
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 { return quantileSorted(sortedCopy(xs), 0.5) }

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (the exclusive method), because that is
// how the benchmark's acceptance spread is computed. Fewer than two samples
// have no spread: both quartiles are the sample.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return s[0], s[0]
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := pos - float64(j)
		return s[j-1] + d*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

// tailCandidates are the percentiles a tail metric may fall back to, highest
// first.
var tailCandidates = []float64{0.999, 0.99, 0.95, 0.90, 0.75}

// tailPercentile picks the percentile a tail metric is reported at: the
// highest candidate not above want that still has at least ten samples
// beyond it, so the reported value is never one outlier. With too few
// samples for any candidate it degrades to the median.
func tailPercentile(n int, want float64) float64 {
	for _, p := range tailCandidates {
		if p <= want && float64(n)*(1-p) >= 10 {
			return p
		}
	}
	return 0.5
}

// tail returns the tail value of the samples at tailPercentile and the
// percentile actually used.
func tail(xs []float64, want float64) (value, used float64) {
	used = tailPercentile(len(xs), want)
	return quantileSorted(sortedCopy(xs), used), used
}
