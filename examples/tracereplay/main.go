// Tracereplay: reproduce the paper's main experimental methodology — the
// Write/Mixed/Read groups of Microsoft server traces (Table 6), each trace
// replayed by four threads against an SRC cache — and compare Sel-GC with
// plain destaging (S2D), the heart of Table 8 and Figure 7.
package main

import (
	"fmt"
	"log"

	"srccache"
)

// scale shrinks the trace footprints to 1/64 of the paper's so the example
// finishes in seconds; the cache-to-working-set ratio is what matters.
const scale = 1.0 / 64

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	for _, group := range []string{"Write", "Mixed", "Read"} {
		fmt.Printf("--- %s group ---\n", group)
		for _, gc := range []srccache.GCPolicy{srccache.SelGC, srccache.S2D} {
			mbps, hit, err := runGroup(group, gc)
			if err != nil {
				return err
			}
			fmt.Printf("  %-7v  %7.1f MB/s  hit ratio %.2f\n", gc, mbps, hit)
		}
	}
	return nil
}

func runGroup(group string, gc srccache.GCPolicy) (float64, float64, error) {
	specs, err := srccache.TraceGroup(group)
	if err != nil {
		return 0, 0, err
	}
	// Lay the traces side by side in the backing volume, as the paper's
	// replayer does across its 22 volumes.
	var sources []srccache.WorkloadSource
	var offset int64
	for _, spec := range specs {
		synth, err := srccache.NewTraceSynth(srccache.TraceSynthConfig{
			Spec:   spec,
			Scale:  scale,
			Offset: offset,
		})
		if err != nil {
			return 0, 0, err
		}
		offset += synth.Span()
		sources = append(sources, synth)
	}

	sys, err := srccache.NewSystem(srccache.SystemConfig{
		SSDCapacity:     64 << 20, // keep cache well below the working set
		PrimaryCapacity: offset + (64 << 20),
		Cache:           srccache.CacheConfig{GC: gc},
	})
	if err != nil {
		return 0, 0, err
	}
	res, err := srccache.RunBench(sys.Cache, sources, srccache.BenchOptions{
		Slots:       4, // "each trace being replayed by four threads"
		MaxRequests: 40_000,
	})
	if err != nil {
		return 0, 0, err
	}
	return res.MBps(), sys.Cache.Counters().HitRatio(), nil
}
