// Package stats provides a log-bucketed latency histogram with approximate
// percentiles, used by the benchmark runner for per-request latency
// reporting.
package stats

import (
	"math"
	"math/bits"

	"srccache/internal/vtime"
)

// subBuckets is the linear resolution within each power-of-two bucket;
// 16 sub-buckets bound the relative quantile error at ~6%.
const subBuckets = 16

// Histogram accumulates durations.
type Histogram struct {
	counts [64 * subBuckets]int64
	n      int64
	sum    vtime.Duration
	max    vtime.Duration
}

// bucketOf maps a duration to its bucket index.
func bucketOf(d vtime.Duration) int {
	if d < 0 {
		d = 0
	}
	v := uint64(d)
	if v < subBuckets {
		return int(v)
	}
	exp := bits.Len64(v) - 1 // floor(log2 v), >= 4 here
	shift := exp - 4         // high 4 bits after the leading 1
	sub := int((v >> uint(shift)) & (subBuckets - 1))
	return (exp-3)*subBuckets + sub
}

// lowerBound reports the smallest duration mapping to bucket i.
func lowerBound(i int) vtime.Duration {
	if i < subBuckets {
		return vtime.Duration(i)
	}
	exp := i/subBuckets + 3
	if exp >= 63 {
		return vtime.Duration(math.MaxInt64)
	}
	sub := i % subBuckets
	return vtime.Duration((1 << uint(exp)) | (uint64(sub) << uint(exp-4)))
}

// Observe records one duration.
func (h *Histogram) Observe(d vtime.Duration) {
	h.counts[bucketOf(d)]++
	h.n++
	h.sum += d
	if d > h.max {
		h.max = d
	}
}

// Count reports the number of observations.
func (h *Histogram) Count() int64 { return h.n }

// Mean reports the average observation, or zero when empty.
func (h *Histogram) Mean() vtime.Duration {
	if h.n == 0 {
		return 0
	}
	return h.sum / vtime.Duration(h.n)
}

// Max reports the largest observation.
func (h *Histogram) Max() vtime.Duration { return h.max }

// Percentile reports the approximate p-th percentile (p in [0,100]).
func (h *Histogram) Percentile(p float64) vtime.Duration {
	if h.n == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 100 {
		p = 100
	}
	rank := int64(math.Ceil(p / 100 * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	if rank >= h.n {
		// The terminal rank is the largest observation, which is tracked
		// exactly; a bucket lower bound would under-report it.
		return h.max
	}
	var seen int64
	for i := range h.counts {
		seen += h.counts[i]
		if seen >= rank {
			return lowerBound(i)
		}
	}
	return h.max
}

// Summary is the fixed quantile digest the benchmark trajectory records:
// the latency shape of one run in six numbers.
type Summary struct {
	Count int64
	Mean  vtime.Duration
	P50   vtime.Duration
	P99   vtime.Duration
	P999  vtime.Duration
	Max   vtime.Duration
}

// Summarize extracts the digest.
func (h *Histogram) Summarize() Summary {
	return Summary{
		Count: h.Count(),
		Mean:  h.Mean(),
		P50:   h.Percentile(50),
		P99:   h.Percentile(99),
		P999:  h.Percentile(99.9),
		Max:   h.Max(),
	}
}
