package main

import (
	"math"
	"sort"
)

// percentile returns the p-quantile (0 < p ≤ 1) of an ascending-sorted
// sample by the nearest-rank rule: the smallest value with at least p of
// the sample at or below it. No interpolation, so every reported latency
// is one that was measured. An empty sample yields 0.
func percentile(sorted []uint32, p float64) uint32 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// median returns the middle of vs (the mean of the two middle values for an
// even count). vs is not modified. An empty input yields 0.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// mean returns the arithmetic mean of vs, 0 when empty.
func mean(vs []uint32) float64 {
	if len(vs) == 0 {
		return 0
	}
	var sum float64
	for _, v := range vs {
		sum += float64(v)
	}
	return sum / float64(len(vs))
}

// latencies summarises one sample of per-op latencies in nanoseconds. The
// count is carried with the percentiles because a percentile means nothing
// without the number of samples beyond it.
type latencies struct {
	N                        int
	P50, P95, P99, P999, Max float64 // microseconds per op
	StallPerK                float64 // samples over 1 ms per op, per thousand
}

// stallNs is the threshold above which an op is counted as a sandbox stall:
// loopback ops here take tens of microseconds, and a scheduler tick is 4 ms.
const stallNs = 1_000_000

// summarize sorts ns in place and reports its percentiles in microseconds
// per op. scale is the number of ops one sample covers: 1 for a per-op
// latency, window where a sample is the wall time of a whole window.
func summarize(ns []uint32, scale float64) latencies {
	sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
	us := func(p float64) float64 { return float64(percentile(ns, p)) / 1e3 / scale }
	l := latencies{N: len(ns), P50: us(0.50), P95: us(0.95), P99: us(0.99), P999: us(0.999), Max: us(1)}
	if len(ns) > 0 {
		stalls := len(ns) - sort.Search(len(ns), func(i int) bool { return float64(ns[i]) > stallNs*scale })
		l.StallPerK = 1e3 * float64(stalls) / float64(len(ns))
	}
	return l
}
