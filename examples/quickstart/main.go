// Quickstart: assemble an SRC cache over a simulated 4-SSD array fronting
// networked HDD primary storage, push I/O through it, and read the
// evaluation metrics — the smallest end-to-end use of the public API.
package main

import (
	"fmt"
	"log"

	"srccache"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// A complete deployment with the paper's defaults: RAID-5 striping,
	// Sel-GC with U_MAX 90%, FIFO victims, no parity for clean data,
	// flush per segment group.
	sys, err := srccache.NewSystem(srccache.SystemConfig{})
	if err != nil {
		return err
	}
	fmt.Printf("assembled SRC over %d SSDs, cache groups=%d, primary=%d MiB\n",
		len(sys.SSDs), sys.Cache.State(nil).Groups, sys.Primary.Capacity()>>20)

	// Drive it with an FIO-like mixed workload: 70% writes, uniform
	// random 4 KiB requests over 512 MiB.
	gen, err := srccache.NewWorkload(srccache.WorkloadConfig{
		Pattern:      srccache.UniformRandom,
		Span:         512 << 20,
		ReadFraction: 0.3,
		Seed:         1,
	})
	if err != nil {
		return err
	}
	res, err := srccache.RunBench(sys.Cache, []srccache.WorkloadSource{gen}, srccache.BenchOptions{
		Slots:       128, // iodepth 32 x 4 threads
		MaxRequests: 50_000,
	})
	if err != nil {
		return err
	}

	fmt.Printf("throughput  %.1f MB/s (%d requests in %v of virtual time)\n",
		res.MBps(), res.Requests, res.Makespan())
	fmt.Printf("latency     mean=%v p99=%v\n", res.Latency.Mean(), res.Latency.Percentile(99))

	ctr := sys.Cache.Counters()
	fmt.Printf("hit ratio   %.2f\n", ctr.HitRatio())
	fmt.Printf("destaged    %d MiB to primary, %d MiB copied SSD-to-SSD by Sel-GC\n",
		ctr.DestageBytes>>20, ctr.GCCopyBytes>>20)
	fmt.Printf("overheads   metadata %d MiB, parity %d MiB, %d flush commands\n",
		ctr.MetadataBytes>>20, ctr.ParityBytes>>20, ctr.SSDFlushes)

	// Per-drive wear, the input to the paper's lifetime model.
	for i, drive := range sys.SSDs {
		fmt.Printf("ssd%d        WAF=%.2f mean erase count=%.1f\n", i, drive.WAF(), drive.MeanEraseCount())
	}
	return nil
}
