package main

import (
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // reversed: percentile must sort a copy
	}
	return xs
}

func TestPercentileRule(t *testing.T) {
	for _, tc := range []struct {
		n       int
		want    float64
		p, v    float64
		comment string
	}{
		{1000, 99, 99, 990, "enough samples: the true p99, 10 beyond it"},
		{2000, 99, 99, 1980, "more than enough: p99 with 20 beyond"},
		{500, 99, 98, 490, "too few for p99: highest percentile with 10 beyond"},
		{11, 99, 100.0 * 6 / 11, 6, "the fallback never drops below the median"},
		{5, 99, 60, 3, "tiny samples report the median"},
		{101, 50, 100.0 * 51 / 101, 51, "p50 is the nearest-rank median"},
	} {
		got := percentile(seq(tc.n), tc.want)
		if got.N != tc.n || got.Value != tc.v || got.P != tc.p {
			t.Errorf("%s: percentile(n=%d, %v) = %+v, want P=%v Value=%v N=%d", tc.comment, tc.n, tc.want, got, tc.p, tc.v, tc.n)
		}
		if beyond := tc.n - int(got.Value); tc.n > 2*minBeyond && beyond < minBeyond {
			t.Errorf("n=%d: only %d samples beyond the reported tail", tc.n, beyond)
		}
	}
	if got := percentile(nil, 99); got != (tail{}) {
		t.Errorf("empty sample: %+v", got)
	}
	xs := seq(7)
	percentile(xs, 99)
	if xs[0] != 7 {
		t.Errorf("percentile reordered its input")
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("empty median = %v", got)
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	iv := func(a, b int) interval { return interval{at(a), at(b)} }
	parent := iv(0, 100)
	for _, tc := range []struct {
		name string
		kids []interval
		want time.Duration
	}{
		{"no children", nil, 100 * time.Millisecond},
		{"disjoint", []interval{iv(10, 20), iv(30, 50)}, 70 * time.Millisecond},
		// Two clients' requests overlap: the union [10,60) counts once.
		{"overlapping", []interval{iv(10, 40), iv(20, 60)}, 50 * time.Millisecond},
		{"nested", []interval{iv(10, 90), iv(20, 30)}, 20 * time.Millisecond},
		{"touching", []interval{iv(10, 20), iv(20, 30)}, 80 * time.Millisecond},
		{"sticking out is clipped", []interval{iv(-50, 10), iv(95, 200)}, 85 * time.Millisecond},
		{"unsorted", []interval{iv(70, 80), iv(0, 10), iv(5, 15)}, 75 * time.Millisecond},
		{"outside entirely", []interval{iv(150, 200)}, 100 * time.Millisecond},
	} {
		if got := selfTime(parent, tc.kids); got != tc.want {
			t.Errorf("%s: selfTime = %v, want %v", tc.name, got, tc.want)
		}
	}
}
