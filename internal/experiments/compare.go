package experiments

import (
	"srccache/internal/bench"
	"srccache/internal/src"
)

// Section 5.4: SRC vs the existing solutions deployed over RAID-5
// ("Bcache5" / "Flashcache5").

// Figure7 compares SRC (defaults), SRC-S2D, Bcache5, and Flashcache5 on the
// three trace groups: throughput, I/O amplification, and hit ratio.
func Figure7(opts Options) ([]*Table, error) {
	return runDesign(opts, "fig7", "System", []variant{
		tweak("SRC", "SRC", nil),
		tweak("SRC-S2D", "SRC-S2D", func(c *src.Config) { c.GC = src.S2D }),
		{"Bcache5", "Bcache5", raid5Baseline(Bcache)},
		{"Flashcache5", "Flashcache5", raid5Baseline(Flashcache)},
	},
		view{"Figure 7(a)", "Throughput (MB/s)", mbpsCell, []string{
			"paper: SRC beats Bcache5 by 2.8-3.1x and Flashcache5 by 2.3-2.8x;",
			"SRC > SRC-S2D; Bcache5 worst (flush per journal write)",
		}},
		view{"Figure 7(b)", "I/O amplification", ioAmpCell,
			[]string{"paper: SRC amplifies more than SRC-S2D (Sel-GC copies hot data)"}},
		view{"Figure 7(c)", "Hit ratio", hitRatioCell, []string{"paper: Sel-GC's hit ratio exceeds S2D's"}})
}

// raid5Baseline is the variant builder of k over RAID-5 (RAID5Baseline).
func raid5Baseline(k Baseline) func(Options, int64) (bench.Cache, error) {
	return func(o Options, span int64) (bench.Cache, error) {
		return o.RAID5Baseline(k, o.cachePerSSD(), PrimaryVolume(span))
	}
}
