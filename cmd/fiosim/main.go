// Command fiosim is the FIO-like load driver for the simulated storage
// stack: it assembles a target (raw SSD, RAID volume, SRC cache, or the
// baseline caches) and runs a synthetic workload or an MSR-format trace
// against it, printing virtual-time throughput, latency, and cache
// metrics.
//
// Usage:
//
//	fiosim -target src -pattern randwrite -bs 4096 -iodepth 32 -threads 4 -requests 100000
//	fiosim -target raid5 -pattern randread -requests 50000
//	fiosim -target src -replay trace.csv
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"srccache/internal/bench"
	"srccache/internal/blockdev"
	"srccache/internal/experiments"
	"srccache/internal/raid"
	"srccache/internal/trace"
	"srccache/internal/vtime"
	"srccache/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "fiosim:", err)
		os.Exit(1)
	}
}

type config struct {
	target   string
	pattern  string
	bs       int64
	iodepth  int
	threads  int
	requests int64
	span     int64
	ssdCap   int64
	replay   string
	openLoop bool
	speedup  float64
	seed     int64
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("fiosim", flag.ContinueOnError)
	var c config
	fs.StringVar(&c.target, "target", "src", "target: ssd | raid0 | raid5 | src | bcache5 | flashcache5")
	fs.StringVar(&c.pattern, "pattern", "randwrite", "randwrite | randread | randrw | write | read | zipf")
	fs.Int64Var(&c.bs, "bs", 4096, "request size in bytes (page multiple)")
	fs.IntVar(&c.iodepth, "iodepth", 32, "outstanding requests per thread")
	fs.IntVar(&c.threads, "threads", 4, "workload threads")
	fs.Int64Var(&c.requests, "requests", 100_000, "total requests")
	fs.Int64Var(&c.span, "span", 0, "addressed span in bytes (default: half the target)")
	fs.Int64Var(&c.ssdCap, "ssdcap", 256<<20, "per-SSD capacity in bytes")
	fs.StringVar(&c.replay, "replay", "", "replay an MSR-format CSV trace instead of a synthetic pattern")
	fs.BoolVar(&c.openLoop, "openloop", false, "honour trace timestamps (open-loop) instead of closed-loop replay")
	fs.Float64Var(&c.speedup, "speedup", 1, "open-loop timestamp acceleration factor")
	fs.Int64Var(&c.seed, "seed", 0, "workload seed")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var recs []trace.Record
	if c.replay != "" {
		f, err := os.Open(c.replay)
		if err != nil {
			return err
		}
		recs, err = trace.ReadCSV(f)
		f.Close()
		if err != nil {
			return err
		}
	}
	sys, devs, cache, volume, err := buildTarget(c, traceEnd(recs))
	if err != nil {
		return err
	}
	if c.span == 0 {
		c.span = volume / 2
		c.span -= c.span % blockdev.PageSize
	}

	before := bench.SnapshotDevices(devs)
	var res *bench.Result
	if c.openLoop {
		if c.replay == "" {
			return fmt.Errorf("-openloop requires -replay (timestamps come from the trace)")
		}
		res, err = bench.RunOpenLoop(sys, arrivals(recs), bench.OpenLoopOptions{Speedup: c.speedup})
		if err != nil {
			return err
		}
	} else {
		sources, err := buildSources(c, recs)
		if err != nil {
			return err
		}
		// iodepth × threads requests in flight: iodepth per synthetic
		// thread, or all of them on a replay's one stream.
		res, err = bench.Run(sys, sources, bench.Options{
			Slots:       c.iodepth * c.threads / max(len(sources), 1),
			MaxRequests: c.requests,
		})
		if err != nil {
			return err
		}
	}

	fmt.Fprintf(stdout, "target=%s pattern=%s bs=%d iodepth=%d threads=%d\n",
		c.target, c.pattern, c.bs, c.iodepth, c.threads)
	fmt.Fprintf(stdout, "requests=%d bytes=%d makespan=%v\n", res.Requests, res.Bytes, res.Makespan())
	fmt.Fprintf(stdout, "throughput=%.1f MB/s iops=%.0f\n", res.MBps(), res.IOPS())
	fmt.Fprintf(stdout, "latency mean=%v p50=%v p99=%v max=%v\n",
		res.Latency.Mean(), res.Latency.Percentile(50), res.Latency.Percentile(99), res.Latency.Max())
	devBytes := bench.DeltaBytes(devs, before)
	fmt.Fprintf(stdout, "device bytes=%d amplification=%.2f\n", devBytes, bench.IOAmplification(res.Bytes, devBytes))
	if cache != nil {
		ctr := cache.Counters()
		fmt.Fprintf(stdout, "hit ratio=%.3f destaged=%d MiB gc copies=%d MiB metadata=%d MiB parity=%d MiB flushes=%d\n",
			ctr.HitRatio(), ctr.DestageBytes>>20, ctr.GCCopyBytes>>20, ctr.MetadataBytes>>20, ctr.ParityBytes>>20, ctr.SSDFlushes)
	}
	return nil
}

// traceEnd returns the largest page-rounded end of recs' requests: the
// primary a replay runs against must reach it.
func traceEnd(recs []trace.Record) int64 {
	var end int64
	for _, r := range recs {
		end = max(end, (r.Off+r.Len+blockdev.PageSize-1)/blockdev.PageSize*blockdev.PageSize)
	}
	return end
}

// buildTarget assembles the chosen system on the paper's 1/16 testbed. It
// returns the system to drive, the devices to account traffic against, the
// cache (nil for raw targets), and the host-visible volume size. A cache
// target's primary spans four SSDs' capacity, or minVolume bytes if that is
// more; a raw target's SSDs grow past -ssdcap until its data columns reach
// minVolume.
func buildTarget(c config, minVolume int64) (bench.System, []blockdev.Device, bench.Cache, int64, error) {
	var testbed experiments.Options
	rawCap := func(dataCols int64) int64 {
		col := (minVolume + dataCols - 1) / dataCols
		return max(c.ssdCap, (col+blockdev.PageSize-1)/blockdev.PageSize*blockdev.PageSize)
	}
	volume := experiments.PrimaryVolume(max(4*c.ssdCap, minVolume))
	var cache bench.Cache
	var err error
	switch c.target {
	case "ssd":
		devs, _, err := testbed.SSDs(1, rawCap(1))
		if err != nil {
			return nil, nil, nil, 0, err
		}
		return devs[0], devs, nil, devs[0].Capacity(), nil
	case "raid0", "raid5":
		level, dataCols := raid.Level0, int64(4)
		if c.target == "raid5" {
			level, dataCols = raid.Level5, 3
		}
		arr, devs, err := testbed.RAIDVolume(level, blockdev.PageSize, rawCap(dataCols))
		if err != nil {
			return nil, nil, nil, 0, err
		}
		return arr, devs, nil, arr.Capacity(), nil
	case "src":
		cache, err = testbed.SRC(c.ssdCap, volume, nil)
	case "bcache5":
		cache, err = testbed.RAID5Baseline(experiments.Bcache, c.ssdCap, volume)
	case "flashcache5":
		cache, err = testbed.RAID5Baseline(experiments.Flashcache, c.ssdCap, volume)
	default:
		return nil, nil, nil, 0, fmt.Errorf("unknown target %q", c.target)
	}
	if err != nil {
		return nil, nil, nil, 0, err
	}
	return cache, cache.CacheDevices(), cache, volume, nil
}

// buildSources creates the workload sources: either the synthetic pattern
// split across threads, or a replay of recs.
func buildSources(c config, recs []trace.Record) ([]workload.Source, error) {
	if c.replay != "" {
		return []workload.Source{trace.NewReplay(recs)}, nil
	}
	var pattern workload.Pattern
	var readFrac float64
	switch c.pattern {
	case "randwrite":
		pattern = workload.UniformRandom
	case "randread":
		pattern, readFrac = workload.UniformRandom, 1
	case "randrw":
		pattern, readFrac = workload.UniformRandom, 0.5
	case "write":
		pattern = workload.Sequential
	case "read":
		pattern, readFrac = workload.Sequential, 1
	case "zipf":
		pattern, readFrac = workload.Zipf, 0.5
	default:
		return nil, fmt.Errorf("unknown pattern %q", c.pattern)
	}
	sources := make([]workload.Source, c.threads)
	for i := range sources {
		gen, err := workload.NewGenerator(workload.Config{
			Pattern:      pattern,
			Span:         c.span,
			RequestBytes: c.bs,
			ReadFraction: readFrac,
			Seed:         c.seed + int64(i),
		})
		if err != nil {
			return nil, err
		}
		sources[i] = gen
	}
	return sources, nil
}

// arrivals turns trace records into timestamped arrivals.
func arrivals(recs []trace.Record) []bench.TimedRequest {
	out := make([]bench.TimedRequest, len(recs))
	for i, r := range recs {
		out[i] = bench.TimedRequest{
			At:  vtime.Time(r.Timestamp),
			Req: blockdev.Request{Op: r.Op, Off: r.Off, Len: r.Len},
		}
	}
	return out
}
