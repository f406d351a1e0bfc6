package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a reported tail
// percentile: a p99 read from fewer than 1000 samples would rest on a
// handful of points, so the tail falls back to the highest percentile
// that still has minBeyond samples beyond it.
const minBeyond = 10

// tail is one reported percentile of a sample.
type tail struct {
	// P is the percentile actually reported (≤ the one asked for).
	P float64
	// Value is the sample at that percentile (nearest rank).
	Value float64
	// N is the sample count.
	N int
}

// percentile returns the nearest-rank want-th percentile of xs, lowered
// to the highest percentile with at least minBeyond samples beyond it,
// and never below the median. xs need not be sorted; it is not
// modified. An empty sample yields the zero tail.
func percentile(xs []float64, want float64) tail {
	n := len(xs)
	if n == 0 {
		return tail{}
	}
	s := sortedCopy(xs)
	rank := int(math.Ceil(want / 100 * float64(n)))
	if rank > n-minBeyond {
		rank = n - minBeyond
	}
	if med := (n + 1) / 2; rank < med {
		rank = med
	}
	return tail{P: 100 * float64(rank) / float64(n), Value: s[rank-1], N: n}
}

// median returns the middle of xs (the mean of the two middle values
// for an even count); 0 for an empty sample.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sortedCopy(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// blockMeans returns the mean of each run of n consecutive samples,
// dropping a short last run.
func blockMeans(xs []float64, n int) []float64 {
	out := make([]float64, 0, len(xs)/n)
	for i := 0; i+n <= len(xs); i += n {
		var sum float64
		for _, x := range xs[i : i+n] {
			sum += x
		}
		out = append(out, sum/float64(n))
	}
	return out
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func mb(bytes uint64) float64 { return float64(bytes) / (1 << 20) }

// interval is a span's extent on the wall clock.
type interval struct{ start, end time.Time }

// selfTime returns the part of parent that none of children covers.
// Children may overlap one another (concurrent requests under one
// loop span) and may stick out of the parent; only their union inside
// the parent is subtracted.
func selfTime(parent interval, children []interval) time.Duration {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		if c.start.Before(parent.start) {
			c.start = parent.start
		}
		if c.end.After(parent.end) {
			c.end = parent.end
		}
		if c.end.After(c.start) {
			clipped = append(clipped, c)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start.Before(clipped[j].start) })
	var covered time.Duration
	var cur interval
	for i, c := range clipped {
		switch {
		case i == 0:
			cur = c
		case !c.start.After(cur.end):
			if c.end.After(cur.end) {
				cur.end = c.end
			}
		default:
			covered += cur.end.Sub(cur.start)
			cur = c
		}
	}
	if len(clipped) > 0 {
		covered += cur.end.Sub(cur.start)
	}
	return parent.end.Sub(parent.start) - covered
}
