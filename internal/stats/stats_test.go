package stats

import (
	"math/rand"
	"sort"
	"testing"

	"srccache/internal/vtime"
)

func TestEmptyHistogram(t *testing.T) {
	var h Histogram
	if h.Mean() != 0 || h.Percentile(50) != 0 || h.Count() != 0 || h.Max() != 0 {
		t.Fatal("empty histogram not zero")
	}
}

func TestMeanAndMax(t *testing.T) {
	var h Histogram
	h.Observe(10 * vtime.Microsecond)
	h.Observe(30 * vtime.Microsecond)
	if h.Mean() != 20*vtime.Microsecond {
		t.Fatalf("mean %v", h.Mean())
	}
	if h.Max() != 30*vtime.Microsecond {
		t.Fatalf("max %v", h.Max())
	}
	if h.Count() != 2 {
		t.Fatalf("count %d", h.Count())
	}
}

func TestNegativeClampedToZero(t *testing.T) {
	var h Histogram
	h.Observe(-5)
	if h.Percentile(100) != 0 {
		t.Fatalf("p100 %v", h.Percentile(100))
	}
}

func TestPercentileApproximation(t *testing.T) {
	var h Histogram
	rng := rand.New(rand.NewSource(7))
	samples := make([]vtime.Duration, 0, 10000)
	for i := 0; i < 10000; i++ {
		d := vtime.Duration(rng.Int63n(int64(50 * vtime.Millisecond)))
		samples = append(samples, d)
		h.Observe(d)
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	for _, p := range []float64{50, 90, 99} {
		exact := samples[int(p/100*float64(len(samples)))-1]
		got := h.Percentile(p)
		ratio := float64(got) / float64(exact)
		if ratio < 0.85 || ratio > 1.15 {
			t.Fatalf("p%.0f = %v, exact %v (ratio %.3f)", p, got, exact, ratio)
		}
	}
	// Clamping of out-of-range percentiles.
	if h.Percentile(-5) == 0 && h.Count() > 0 {
		// p0 clamps to the first observation's bucket; just ensure ordering:
		if h.Percentile(-5) > h.Percentile(200) {
			t.Fatal("percentiles not monotone under clamping")
		}
	}
}

func TestPercentile100EqualsMax(t *testing.T) {
	// Adversarial inputs: observations far above their bucket's lower
	// bound, where the pre-fix Percentile(100) under-reported Max().
	cases := [][]vtime.Duration{
		{1<<40 + 12345},
		{1, 1<<30 + 7},
		{3, 5, 7, 1<<50 - 1},
		{1 << 20, 1<<20 + 1},
	}
	for _, vs := range cases {
		var h Histogram
		for _, v := range vs {
			h.Observe(v)
		}
		if got := h.Percentile(100); got != h.Max() {
			t.Fatalf("inputs %v: p100 = %v, max %v", vs, got, h.Max())
		}
		// Over-range percentiles clamp to the same exact maximum.
		if got := h.Percentile(200); got != h.Max() {
			t.Fatalf("inputs %v: p200 = %v, max %v", vs, got, h.Max())
		}
	}
	// The invariant holds at every prefix of a random stream.
	rng := rand.New(rand.NewSource(42))
	var h Histogram
	for i := 0; i < 1000; i++ {
		h.Observe(vtime.Duration(rng.Int63()))
		if got := h.Percentile(100); got != h.Max() {
			t.Fatalf("after %d observations: p100 = %v, max %v", i+1, got, h.Max())
		}
	}
	// Sub-terminal percentiles still never exceed the maximum.
	if h.Percentile(99.9) > h.Max() {
		t.Fatal("p99.9 above max")
	}
}

func TestBucketBoundsMonotone(t *testing.T) {
	prev := vtime.Duration(-1)
	for i := 0; i < 64*subBuckets; i++ {
		lb := lowerBound(i)
		if lb < prev {
			t.Fatalf("bucket %d lower bound %v < previous %v", i, lb, prev)
		}
		prev = lb
	}
	// Round trip: a value maps to a bucket whose bound does not exceed it.
	for _, d := range []vtime.Duration{0, 1, 15, 16, 17, 1000, 123456789} {
		b := bucketOf(d)
		if lowerBound(b) > d {
			t.Fatalf("value %v in bucket %d with lower bound %v", d, b, lowerBound(b))
		}
	}
}
