package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is the number of samples that must lie beyond a reported
// percentile for it to mean anything: p99 needs at least 1000 samples.
const minBeyond = 10

// quantile returns the nearest-rank p-quantile of xs and fails when
// fewer than minBeyond samples lie above it. p = 0.5 is
// the median; it needs minBeyond samples above it as well, so a
// one-sample run never reports a median either.
func quantile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	if n == 0 {
		return 0, fmt.Errorf("no samples")
	}
	if p <= 0 || p >= 1 {
		return 0, fmt.Errorf("quantile %v outside (0, 1)", p)
	}
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if beyond := n - rank; beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, want at least %d", p*100, n, beyond, minBeyond)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// median is the plain middle value (mean of the middle pair for an even
// count) of a small set, such as repeated set-up times or rung timings.
// It does not enforce the percentile rule.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// windowSize is the number of samples per window of windowedP99: the
// least that leaves minBeyond samples beyond a p99.
const windowSize = 1000

// windowedP99 splits samples (in the order they completed) into
// consecutive windows of at least windowSize samples each, takes each
// window's p99, and returns their median. A burst of host noise then
// moves the p99 of the few windows it falls in, not the reported value.
func windowedP99(xs []float64) (float64, error) {
	w := len(xs) / windowSize
	if w < 1 {
		w = 1
	}
	p99s := make([]float64, w)
	for k := range p99s {
		v, err := quantile(xs[k*len(xs)/w:(k+1)*len(xs)/w], 0.99)
		if err != nil {
			return 0, err
		}
		p99s[k] = v
	}
	return median(p99s), nil
}
