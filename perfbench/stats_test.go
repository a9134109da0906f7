package main

import (
	"math"
	"testing"
)

func TestQuantileSortsRefusalsLast(t *testing.T) {
	inf := math.Inf(1)
	v := []float64{5, inf, 1, 3, 2, 4, inf, 6, 7, 8}
	if got := quantile(append([]float64(nil), v...), 0.5); got != 5 {
		t.Errorf("p50 = %v, want 5", got)
	}
	if got := quantile(append([]float64(nil), v...), 0.8); got != 8 {
		t.Errorf("p80 = %v, want 8", got)
	}
	if got := quantile(append([]float64(nil), v...), 0.9); !math.IsInf(got, 1) {
		t.Errorf("p90 = %v, want +Inf: a refusal misses every limit", got)
	}
}

func ramp(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(i + 1)
	}
	return v
}

func TestHighestTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n      int
		q      float64
		beyond int
	}{
		{10000, 0.999, 10},
		{9999, 0.99, 99},
		{1000, 0.99, 10},
		{999, 0.9, 99},
		{100, 0.9, 10},
		{99, 0.5, 49},
	} {
		q, v, n, ok := highestTail(ramp(tc.n))
		if !ok || q != tc.q || n != tc.beyond {
			t.Errorf("n=%d: got p%g with %d beyond (ok=%v), want p%g with %d", tc.n, q*100, n, ok, tc.q*100, tc.beyond)
		}
		if want := math.Ceil(tc.q * float64(tc.n)); v != want {
			t.Errorf("n=%d: value %v, want %v", tc.n, v, want)
		}
	}
	if _, _, _, ok := highestTail(ramp(19)); ok {
		t.Error("19 samples: no percentile has ten samples beyond the median")
	}
}

func TestHighestTailCountsRefusalsBeyond(t *testing.T) {
	v := ramp(1000)
	for i := 980; i < 1000; i++ {
		v[i] = math.Inf(1)
	}
	q, x, n, ok := highestTail(v)
	if !ok || q != 0.99 || !math.IsInf(x, 1) || n != 10 {
		t.Errorf("got p%g = %v with %d beyond, want p99 = +Inf with 10 beyond", q*100, x, n)
	}
}

func TestWindowedIgnoresOneStalledWindow(t *testing.T) {
	v := ramp(500)
	for i := 100; i < 200; i++ {
		v[i] = 1e6 // one window of five stalls
	}
	if got := windowed(v, 5, 0.5); got > 500 {
		t.Errorf("windowed p50 = %v, want a window without the stall", got)
	}
}

func TestDigestCoversOrder(t *testing.T) {
	a, b, c := newDigest(), newDigest(), newDigest()
	for _, d := range []*digest{a, b} {
		d.add("1|full|2|0|0|0||0.0625|1.5e-05")
		d.add("0|partial|2|1|0|3|tier-degraded|0.07|2e-05")
	}
	c.add("0|partial|2|1|0|3|tier-degraded|0.07|2e-05")
	c.add("1|full|2|0|0|0||0.0625|1.5e-05")
	if a.sum() != b.sum() || a.n != 2 {
		t.Errorf("equal lines gave %s and %s", a.sum(), b.sum())
	}
	if a.sum() == c.sum() {
		t.Error("reordered lines gave the same digest")
	}
}

func TestOutcomeLineKeepsEveryBit(t *testing.T) {
	a, b := 0.1, 0.2
	o := outcome{spent: a + b} // 0.30000000000000004
	p := outcome{spent: 0.3}
	if o.line() == p.line() {
		t.Errorf("0.1+0.2 and 0.3 rendered alike: %s", o.line())
	}
}
