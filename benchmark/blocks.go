package main

import (
	"sync/atomic"
	"syscall"
	"time"
)

// A trial's timed region is measured in ten blocks, each with its own
// throughput, percentiles and CPU per op, and a run reports the median over
// the thirty blocks of its three trials. Whatever the code does shows in
// every block — a block is half a second, tens of thousands of ops, dozens
// of cache GC bursts, and its p95 has its own tail. What the machine does to
// the run does not: the sandbox's slow bursts (ops of 17 µs taking 24, on and
// off, for a second or a minute) land in some blocks and not in others, and
// the median block is one they missed unless they took more than half the
// run. The whole-region values, which such a burst moves by its share of
// the run, stay in each trial's JSON beside the series.
const blocks = 10

// progress is one client's count of completed timed ops, on a cache line
// of its own so that counting does not make the clients share one.
type progress struct {
	n atomic.Int64
	_ [56]byte
}

// mark is the state at a block boundary.
type mark struct {
	at   time.Time
	cpu  float64 // process user + system CPU so far, µs
	done []int64 // per client: timed ops completed
}

// marker collects marks. Client 0 takes one each time it has issued another
// tenth of its ops; the other clients only count.
type marker struct {
	progress []progress
	marks    []mark
	err      error // first getrusage failure
}

func newMarker(clients int) *marker {
	return &marker{progress: make([]progress, clients), marks: make([]mark, 0, blocks+1)}
}

func (m *marker) take() {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil && m.err == nil {
		m.err = err
	}
	k := mark{at: time.Now(), cpu: tvMicros(ru.Utime) + tvMicros(ru.Stime), done: make([]int64, len(m.progress))}
	for c := range m.progress {
		k.done[c] = m.progress[c].n.Load()
	}
	m.marks = append(m.marks, k)
}

// blockMetrics measures each interval between two marks on its own. lat
// holds every client's latency samples in issue order, one per opsPerSample
// ops; a block's percentiles are over the samples of the ops all clients
// completed in it.
func (m *marker) blockMetrics(lat [][]uint32, opsPerSample int64) map[string][]float64 {
	out := map[string][]float64{}
	for b := 0; b+1 < len(m.marks); b++ {
		from, to := m.marks[b], m.marks[b+1]
		var ops int64
		var samples []uint32
		for c := range lat {
			ops += to.done[c] - from.done[c]
			samples = append(samples, lat[c][from.done[c]/opsPerSample:to.done[c]/opsPerSample]...)
		}
		if ops == 0 || len(samples) == 0 {
			continue
		}
		l := summarize(samples, float64(opsPerSample))
		out["ops_per_s"] = append(out["ops_per_s"], float64(ops)/to.at.Sub(from.at).Seconds())
		out["cpu_us_per_op"] = append(out["cpu_us_per_op"], (to.cpu-from.cpu)/float64(ops))
		out["p50_us"] = append(out["p50_us"], l.P50)
		out["p95_us"] = append(out["p95_us"], l.P95)
	}
	return out
}
