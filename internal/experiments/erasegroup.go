package experiments

import (
	"fmt"

	"srccache/internal/blockdev"
	"srccache/internal/ssd"
	"srccache/internal/vtime"
	"srccache/internal/workload"
)

// Figure2 reproduces the erase-group-size extraction (Section 3.3): random
// aligned writes of increasing size over a preconditioned SSD, for
// Over-Provisioned Space (OPS) settings from 0% to 50%. Throughput
// saturates once the write size reaches the device's internal erase group
// (scaled: 256 MB / Scale), and the saturation point is independent of
// OPS — the paper's Figure 2 signature.
func Figure2(opts Options) ([]*Table, error) {
	o := opts.normalize()
	sb := o.superblock()
	capacity := 32 * sb
	sizes := []int64{sb / 16, sb / 8, sb / 4, sb / 2, sb, 2 * sb}
	opsPcts := []int{0, 10, 30, 50}

	results, err := gridCells(o, "fig2", len(sizes), len(opsPcts),
		func(r, c int) string { return fmt.Sprintf("%dKiB/ops%d%%", sizes[r]>>10, opsPcts[c]) },
		func(r, c int) (float64, error) {
			return eraseGroupRun(o, capacity, sizes[r], opsPcts[c])
		})
	if err != nil {
		return nil, err
	}
	var rows, cols []string
	for _, size := range sizes {
		rows = append(rows, fmt.Sprintf("%d KiB", size>>10))
	}
	for _, ops := range opsPcts {
		cols = append(cols, fmt.Sprintf("OPS %d%%", ops))
	}
	return []*Table{gridTable("Figure 2",
		fmt.Sprintf("SSD throughput (MB/s) vs write request size; internal erase group = %d MiB (scaled from 256 MiB)", sb>>20),
		"Write size", rows, cols, func(r, c int) string { return f1(results[r][c]) },
		"paper shape: throughput rises with write size and saturates at the erase group size (~400 MB/s),",
		"small writes suffer most at low OPS (internal GC copies)")}, nil
}

// eraseGroupRun preconditions one SSD to the given OPS level (TRIM all,
// sequentially fill 1-OPS of the space — the paper's §3.3/§5.1 protocol)
// and measures one pass of random size-aligned writes over the filled
// region.
func eraseGroupRun(o Options, capacity, writeSize int64, opsPct int) (float64, error) {
	dev, err := ssd.New(o.ssdConfig("fig2", capacity))
	if err != nil {
		return 0, err
	}
	filled := capacity * int64(100-opsPct) / 100
	filled -= filled % writeSize
	if filled < writeSize {
		filled = writeSize
	}

	// Precondition: trim everything, sequentially fill the usable region.
	at, err := dev.Submit(0, blockdev.Request{Op: blockdev.OpTrim, Off: 0, Len: capacity})
	if err != nil {
		return 0, err
	}
	const fillChunk = 1 << 20
	for off := int64(0); off < filled; off += fillChunk {
		n := fillChunk
		if off+int64(n) > filled {
			n = int(filled - off)
		}
		at, err = dev.Submit(at, blockdev.Request{Op: blockdev.OpWrite, Off: off, Len: int64(n)})
		if err != nil {
			return 0, err
		}
	}
	at, err = dev.Flush(at)
	if err != nil {
		return 0, err
	}

	// Measure: two passes worth of random aligned writes of writeSize, so
	// the device reaches GC steady state within the run.
	gen, err := workload.NewGenerator(workload.Config{
		Pattern:      workload.UniformRandom,
		Span:         filled,
		RequestBytes: writeSize,
		Seed:         o.Seed + 3,
	})
	if err != nil {
		return 0, err
	}
	start := at
	total := 2 * filled
	var bytes int64
	for bytes < total {
		req, _ := gen.Next()
		at, err = dev.Submit(at, req)
		if err != nil {
			return 0, err
		}
		bytes += req.Len
	}
	// Include the drain: throughput is sustained, not cache-absorbed.
	at, err = dev.Flush(at)
	if err != nil {
		return 0, err
	}
	return vtime.MBPerSec(bytes, at.Sub(start)), nil
}
