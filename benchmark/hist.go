package main

import (
	"math/bits"
	"sort"
)

// hist is a fixed-memory latency histogram over nanoseconds. Values below
// 64 ns get a bucket each; above that every power of two is cut into 64
// equal buckets, so a bucket is at most 1/64 of its lower bound wide and a
// quantile read from it is within 1 % of the exact sample. It stores no
// samples and never allocates after construction. internal/metrics has a
// FixedHistogram too, but its buckets are 19 % wide, too coarse to resolve
// the regression bounds in BENCHMARK.json.
//
// Not safe for concurrent use: each histogram belongs to one goroutine.
type hist struct {
	count   uint64
	buckets [histBuckets]uint64
}

const (
	histSubBits = 6
	histSub     = 1 << histSubBits
	// histMaxBits caps values at 2^41 ns (~37 min); larger ones clamp.
	histMaxBits = 41
	histBuckets = (histMaxBits - histSubBits + 1) * histSub
)

func histBucket(ns int64) int {
	if ns < histSub {
		if ns < 0 {
			return 0
		}
		return int(ns)
	}
	v := uint64(ns)
	if v >= 1<<histMaxBits {
		v = 1<<histMaxBits - 1
	}
	shift := bits.Len64(v) - 1 - histSubBits
	return (shift+1)*histSub + int(v>>shift) - histSub
}

// histBounds returns the lower bound and width of bucket b.
func histBounds(b int) (lo, width float64) {
	if b < histSub {
		return float64(b), 1
	}
	shift := b/histSub - 1
	return float64(uint64(histSub+b%histSub) << shift), float64(uint64(1) << shift)
}

func (h *hist) add(ns int64) {
	h.buckets[histBucket(ns)]++
	h.count++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.buckets {
		h.buckets[i] += c
	}
	h.count += o.count
}

// quantile returns the q'th quantile in nanoseconds, interpolated inside
// the bucket that holds it; 0 for an empty histogram.
func (h *hist) quantile(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	target := q * float64(h.count)
	cum := 0.0
	for b, c := range h.buckets {
		if c == 0 {
			continue
		}
		if next := cum + float64(c); next >= target {
			lo, width := histBounds(b)
			return lo + width*(target-cum)/float64(c)
		}
		cum += float64(c)
	}
	lo, width := histBounds(histBuckets - 1)
	return lo + width
}

// median returns the middle of xs (the mean of the middle two for an even
// count), and 0 for none: a window without samples reports 0, not NaN.
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

// midmean is the mean of the middle half of xs (the interquartile mean): a
// quarter of the values, rounded down, is dropped at each end, so up to a
// quarter of a run's windows can be disturbed in either direction without
// moving it, and what remains is averaged, not picked from. It is how a run
// reduces its windows. Resampling the 30 windows of a tree-bulk run, the
// median window's p50 had a standard error of 8.5 % and its p95 3.7 %; the
// midmean's, 5.9 % and 2.8 %. 0 for no values.
func midmean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	s = s[len(s)/4 : len(s)-len(s)/4]
	sum := 0.0
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}

// lowerHalfMean is the mean of the smaller half of xs (the middle value goes
// with it when the count is odd). It is how a run reduces its windows' p95s.
// A stall of the host only ever adds to a window's tail, so the windows'
// p95s sit on a floor, the program's own tail, under noise that has one
// sign; the midmean still averages that noise in, and the lower half
// estimates the floor. Over six sets of ten identical runs the midmean of
// the p95s spread by 6-12 % (interquartile range over median) and this by
// 3-8 %; the symmetric figures (throughput, p50, CPU) did no better with it
// and direct-serial's p50 worse, so they keep the midmean. 0 for no values.
func lowerHalfMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	s = s[:(len(s)+1)/2]
	sum := 0.0
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}

// spread is (max−min)/median: how far the windows of one run, or the runs
// of one set, disagree.
func spread(xs []float64) float64 {
	m := median(xs)
	if len(xs) == 0 || m == 0 {
		return 0
	}
	lo, hi := xs[0], xs[0]
	for _, x := range xs {
		lo, hi = min(lo, x), max(hi, x)
	}
	return (hi - lo) / m
}

// iqrShare is the distance between the first and third quartile as a share
// of the median, with the quartiles Python's statistics.quantiles(xs, n=4)
// gives — the figure the acceptance of this benchmark is judged on.
func iqrShare(xs []float64) float64 {
	n := len(xs)
	m := median(xs)
	if n < 2 || m == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	quartile := func(i int) float64 {
		j := i * (n + 1) / 4
		j = max(1, min(j, n-1))
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return (quartile(3) - quartile(1)) / m
}
