package main

import (
	"math"
	"sort"
)

// rankOf is the nearest rank of percentile p in a sample of n: the number
// of values at or below it. The small slack keeps a product like 0.9×100,
// which floating point puts a hair above 90, from rounding up a rank.
func rankOf(n int, p float64) int {
	rank := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return rank
}

// percentile is the exact nearest-rank percentile of a sorted sample:
// the smallest value with at least p percent of the sample at or below it.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rankOf(len(sorted), p)-1]
}

// percentileLadder is the set of percentiles the harness may report.
var percentileLadder = []float64{50, 90, 99, 99.9, 99.99}

// highestPercentile is the highest ladder percentile that still has at
// least ten samples beyond it in a sample of n — the tail a sample of
// that size can speak for.
func highestPercentile(n int) float64 {
	best := percentileLadder[0]
	for _, p := range percentileLadder {
		if n-rankOf(n, p) >= 10 {
			best = p
		}
	}
	return best
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func medianInt(xs []int64) float64 {
	s := append([]int64(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return float64(percentile(s, 50))
}

// bitset records which small non-negative integers were seen.
type bitset struct{ words []uint64 }

// set marks i and reports whether it was new.
func (b *bitset) set(i int) bool {
	if i < 0 {
		return false
	}
	w := i >> 6
	for len(b.words) <= w {
		b.words = append(b.words, make([]uint64, len(b.words)+1024)...)
	}
	mask := uint64(1) << (i & 63)
	if b.words[w]&mask != 0 {
		return false
	}
	b.words[w] |= mask
	return true
}

func (b *bitset) has(i int) bool {
	w := i >> 6
	return i >= 0 && w < len(b.words) && b.words[w]&(uint64(1)<<(i&63)) != 0
}

// quartileSpread is the distance between the first and the third
// quartile of xs as a share of their median, with the quartiles Python's
// statistics.quantiles(xs, n=4) gives — the benchmark driver's measure of
// how far the runs of one workload scatter. It is 0 for fewer than two
// values.
func quartileSpread(xs []float64) float64 {
	n := len(xs)
	med := median(xs)
	if n < 2 || med == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	quartile := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return (quartile(3) - quartile(1)) / med
}
