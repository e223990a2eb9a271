package experiments

import (
	"fmt"

	"srccache/internal/baseline"
	"srccache/internal/bench"
	"srccache/internal/blockdev"
	"srccache/internal/raid"
	"srccache/internal/ssd"
	"srccache/internal/vtime"
	"srccache/internal/workload"
)

// Section 3.1: studies of the existing open-source solutions.

// fioWrite4K drives a system with FIO's 4 KB uniform-random-write workload
// (request size 4 KB, iodepth 32, 4 threads — Table 1's setting) and
// reports MB/s.
func fioWrite4K(sys bench.System, span int64, o Options) (float64, error) {
	gen, err := workload.NewGenerator(workload.Config{
		Pattern: workload.UniformRandom,
		Span:    span,
		Seed:    o.Seed + 1,
	})
	if err != nil {
		return 0, err
	}
	res, err := bench.Run(sys, []workload.Source{gen}, bench.Options{
		Slots:       32 * 4,
		MaxRequests: o.Requests / 2,
	})
	if err != nil {
		return 0, err
	}
	return res.MBps(), nil
}

// baselineKind selects which open-source solution to build.
type baselineKind int

const (
	kindBcache baselineKind = iota + 1
	kindFlashcache
)

func (k baselineKind) String() string {
	if k == kindBcache {
		return "Bcache"
	}
	return "Flashcache"
}

// buildBaseline assembles a Bcache- or Flashcache-like cache over the given
// cache volume.
func buildBaseline(k baselineKind, cacheDev blockdev.Device, ssds []blockdev.Device, span int64, writeBack bool) (bench.Cache, error) {
	prim, err := newPrimary(span)
	if err != nil {
		return nil, err
	}
	d := baseline.Devices{Cache: cacheDev, SSDs: ssds, Primary: prim}
	if k == kindBcache {
		return baseline.NewBcache(d, writeBack)
	}
	return baseline.NewFlashcache(d, writeBack)
}

// Table2 reproduces the write-through vs write-back comparison on a single
// SSD (FIO 4 KB uniform random writes).
func Table2(opts Options) ([]*Table, error) {
	o := opts.normalize()
	t := &Table{
		ID:      "Table 2",
		Title:   "FIO 4KB write performance, write-through vs write-back, single SSD (MB/s)",
		Columns: []string{"Type", "WT", "WB", "Improvement (x)"},
		Notes:   []string{"paper: Bcache 15.3 -> 65.9 (4.3x), Flashcache 5.7 -> 100.3 (17.5x)"},
	}
	kinds := []baselineKind{kindBcache, kindFlashcache}
	modes := []bool{false, true}
	mbps, err := gridCells(o, "table2", len(kinds), len(modes),
		func(r, c int) string { return fmt.Sprintf("%v/wb=%v", kinds[r], modes[c]) },
		func(r, c int) (float64, error) {
			dev, err := ssd.New(o.ssdConfig("ssd0"))
			if err != nil {
				return 0, err
			}
			span := dev.Capacity() / 2
			cache, err := buildBaseline(kinds[r], dev, []blockdev.Device{dev}, span, modes[c])
			if err != nil {
				return 0, err
			}
			return fioWrite4K(cache, span, o)
		})
	if err != nil {
		return nil, err
	}
	for r, kind := range kinds {
		improvement := 0.0
		if mbps[r][0] > 0 {
			improvement = mbps[r][1] / mbps[r][0]
		}
		t.Rows = append(t.Rows, []string{kind.String(), f1(mbps[r][0]), f1(mbps[r][1]), f1(improvement)})
	}
	return []*Table{t}, nil
}

// Table3 reproduces the flush-command impact on a raw SSD: sequential
// 512 KB writes with a flush after each, and random 4 KB writes with a
// flush after every 32 requests.
func Table3(opts Options) ([]*Table, error) {
	o := opts.normalize()
	t := &Table{
		ID:      "Table 3",
		Title:   "Impact of the flush command on a raw SSD (MB/s)",
		Columns: []string{"Pattern", "No flush", "flush", "Reduction (x)"},
		Notes:   []string{"paper: sequential 402 -> 96 (4.1x), random 249 -> 30 (8.3x)"},
	}
	type variant struct {
		name       string
		reqBytes   int64
		pattern    workload.Pattern
		flushEvery int   // requests between flushes; 0 disables
		fraction   int64 // measured volume as a fraction of capacity
	}
	run := func(v variant) (float64, error) {
		dev, err := ssd.New(o.ssdConfig("ssd0"))
		if err != nil {
			return 0, err
		}
		gen, err := workload.NewGenerator(workload.Config{
			Pattern:      v.pattern,
			Span:         dev.Capacity(),
			RequestBytes: v.reqBytes,
			Seed:         o.Seed + 2,
		})
		if err != nil {
			return 0, err
		}
		totalBytes := dev.Capacity() / v.fraction
		var at vtime.Time
		var bytes int64
		for i := 0; bytes < totalBytes; i++ {
			req, _ := gen.Next()
			done, err := dev.Submit(at, req)
			if err != nil {
				return 0, err
			}
			at = done
			bytes += req.Len
			if v.flushEvery > 0 && (i+1)%v.flushEvery == 0 {
				at, err = dev.Flush(at)
				if err != nil {
					return 0, err
				}
			}
		}
		return vtime.MBPerSec(bytes, at.Sub(0)), nil
	}
	variants := []struct {
		name    string
		noFlush variant
		flush   variant
	}{
		{
			name:    "Sequential",
			noFlush: variant{reqBytes: 512 << 10, pattern: workload.Sequential, fraction: 1},
			flush:   variant{reqBytes: 512 << 10, pattern: workload.Sequential, flushEvery: 1, fraction: 1},
		},
		{
			// The paper measured a fresh, TRIM-initialized drive; a
			// quarter-capacity random pass keeps the device in that
			// regime rather than FTL-merge steady state.
			name:    "Random",
			noFlush: variant{reqBytes: blockdev.PageSize, pattern: workload.UniformRandom, fraction: 4},
			flush:   variant{reqBytes: blockdev.PageSize, pattern: workload.UniformRandom, flushEvery: 32, fraction: 4},
		},
	}
	settings := []string{"noflush", "flush"}
	mbps, err := gridCells(o, "table3", len(variants), len(settings),
		func(r, c int) string { return fmt.Sprintf("%s/%s", variants[r].name, settings[c]) },
		func(r, c int) (float64, error) {
			if c == 0 {
				return run(variants[r].noFlush)
			}
			return run(variants[r].flush)
		})
	if err != nil {
		return nil, err
	}
	for r, v := range variants {
		noFlush, withFlush := mbps[r][0], mbps[r][1]
		reduction := 0.0
		if withFlush > 0 {
			reduction = noFlush / withFlush
		}
		t.Rows = append(t.Rows, []string{v.name, f1(noFlush), f1(withFlush), f1(reduction)})
	}
	return []*Table{t}, nil
}

// Figure1 reproduces the baseline-over-RAID study: Bcache and Flashcache
// with the underlying SSD cache layer configured as RAID-0/1/4/5 (chunk
// 4 KB, write-back), FIO 4 KB uniform random writes.
func Figure1(opts Options) ([]*Table, error) {
	o := opts.normalize()
	t := &Table{
		ID:      "Figure 1",
		Title:   "Bcache/Flashcache over RAID levels, FIO 4KB random write (MB/s)",
		Columns: []string{"Type", "RAID-0", "RAID-1", "RAID-4", "RAID-5"},
		Notes: []string{
			"paper shape: RAID-0 best; Flashcache beats Bcache on RAID-0/1 (flush cost);",
			"Bcache beats Flashcache on RAID-4/5 (log-structure dodges read-modify-write)",
		},
	}
	levels := []raid.Level{raid.Level0, raid.Level1, raid.Level4, raid.Level5}
	kinds := []baselineKind{kindBcache, kindFlashcache}
	mbps, err := gridCells(o, "fig1", len(kinds), len(levels),
		func(r, c int) string { return fmt.Sprintf("%v/%v", kinds[r], levels[c]) },
		func(r, c int) (float64, error) {
			arr, ssds, err := buildRAIDVolume(o, levels[c], blockdev.PageSize)
			if err != nil {
				return 0, err
			}
			span := o.cachePerSSD() / 2 // fits every level's cache capacity
			cache, err := buildBaseline(kinds[r], arr, ssds, span, true)
			if err != nil {
				return 0, err
			}
			return fioWrite4K(cache, span, o)
		})
	if err != nil {
		return nil, err
	}
	for r, kind := range kinds {
		row := []string{kind.String()}
		for c := range levels {
			row = append(row, f1(mbps[r][c]))
		}
		t.Rows = append(t.Rows, row)
	}
	return []*Table{t}, nil
}

// buildRAIDVolume assembles a RAID volume of 4 scaled SSDs.
func buildRAIDVolume(o Options, level raid.Level, chunk int64) (blockdev.Device, []blockdev.Device, error) {
	devs, _, err := newSSDs(4, func(i int) ssd.Config { return o.ssdConfig(fmt.Sprintf("ssd%d", i)) })
	if err != nil {
		return nil, nil, err
	}
	arr, err := raid.New(level, chunk, devs)
	if err != nil {
		return nil, nil, err
	}
	return arr, devs, nil
}
