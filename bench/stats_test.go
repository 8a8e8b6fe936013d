package main

import (
	"testing"
	"time"
)

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{[]float64{5}, 5},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		in := append([]float64(nil), c.in...)
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", in, got, c.want)
		}
		for i := range in {
			if in[i] != c.in[i] {
				t.Errorf("median reordered its input: %v -> %v", in, c.in)
			}
		}
	}
}

func TestPercentile(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	for _, c := range []struct {
		n      int
		p      float64
		want   float64
		wantOK bool
	}{
		{1000, 99, 990, true}, // exactly ten samples beyond p99
		{999, 99, 990, false}, // p99 needs >= 1000 samples
		{100, 90, 90, true},   // p90 needs >= 100
		{99, 90, 90, false},
		{3, 50, 2, true}, // the median is always reported
		{1, 99, 1, false},
		{1000, 100, 1000, false}, // nothing lies beyond the maximum
	} {
		got, ok := percentile(seq(c.n), c.p)
		if got != c.want || ok != c.wantOK {
			t.Errorf("percentile(1..%d, %v) = %v, %v; want %v, %v", c.n, c.p, got, ok, c.want, c.wantOK)
		}
	}
	if _, ok := percentile(nil, 50); ok {
		t.Error("percentile of no samples reported ok")
	}
}

func TestSortedMicros(t *testing.T) {
	got := sortedMicros([]time.Duration{3 * time.Millisecond, 1500 * time.Nanosecond})
	if len(got) != 2 || got[0] != 1.5 || got[1] != 3000 {
		t.Errorf("sortedMicros = %v, want [1.5 3000]", got)
	}
}
