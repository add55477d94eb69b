package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a reported tail
// percentile: a tail read from fewer samples is one outlier.
const minBeyond = 10

// tailLadder lists the percentiles a tail may be reported at, highest
// first.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// rank returns the 1-based nearest-rank position of percentile p in n
// sorted samples.
func rank(n int, p float64) int {
	// The epsilon keeps float error (99.9/100*10000 = 9990.000000000002)
	// from pushing an exact rank up by one.
	k := int(math.Ceil(p/100*float64(n) - 1e-9))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}

// tailPercentile picks the highest percentile of the ladder that leaves
// at least minBeyond of n samples above it. ok is false when even the
// median does not.
func tailPercentile(n int) (p float64, ok bool) {
	for _, p := range tailLadder {
		if n-rank(n, p) >= minBeyond {
			return p, true
		}
	}
	return 0, false
}

// percentile returns the nearest-rank percentile p of xs (which it
// sorts in place); NaN for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	return xs[rank(len(xs), p)-1]
}

// median returns the middle of xs, averaging the two middle samples of
// an even count; NaN for no samples. xs is sorted in place.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// interquartileMean returns the mean of the middle half of xs (all of
// them when there are fewer than four); NaN for no samples. xs is
// sorted in place.
func interquartileMean(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	if n >= 4 {
		xs = xs[n/4 : n-n/4]
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// latencies collects timings of one kind of operation.
type latencies []float64

func (l *latencies) add(d time.Duration) { *l = append(*l, d.Seconds()) }

// summary is a timing reported the way every latency of the benchmark
// is: the median, plus the highest percentile with at least minBeyond
// samples beyond it, plus the sample count.
type summary struct {
	N      int
	Median float64 // seconds
	TailP  float64 // 0 when too few samples for any tail
	Tail   float64 // seconds
}

func (l latencies) summary() summary {
	xs := append([]float64(nil), l...)
	s := summary{N: len(xs), Median: median(xs)}
	if p, ok := tailPercentile(len(xs)); ok {
		s.TailP, s.Tail = p, percentile(xs, p)
	}
	return s
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
