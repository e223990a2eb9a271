package experiments

import (
	"fmt"

	"srccache/internal/baseline"
	"srccache/internal/bench"
	"srccache/internal/blockdev"
	"srccache/internal/raid"
	"srccache/internal/src"
)

// Ablations beyond the paper's published tables (DESIGN.md §5): the design
// choices §4 calls out but the evaluation does not sweep, plus the §6
// future-work features implemented in this reproduction.

// AblationVictim extends Table 8's victim-selection comparison with the
// future-work Cost-Benefit policy.
func AblationVictim(opts Options) ([]*Table, error) {
	var policies []variant
	for _, p := range []src.VictimPolicy{src.FIFO, src.Greedy, src.CostBenefit} {
		policies = append(policies, tweak(p.String(), p.String(), func(c *src.Config) { c.Victim = p }))
	}
	return runDesign(opts, "ablation-victim", "", policies, view{"Ablation A1",
		"Victim selection under Sel-GC, MB/s (I/O amplification) — includes future-work Cost-Benefit", ampCell,
		[]string{"beyond the paper: §6 lists other victim policies as future work"}})
}

// AblationSegmentSize sweeps the segment size — §4.1 calls 2 MB "an
// implementation choice made as it is the largest unit in which data can
// be transferred"; this quantifies the choice.
func AblationSegmentSize(opts Options) ([]*Table, error) {
	o := opts.normalize()
	var segments []variant
	for _, segment := range []int64{512 << 10, 2 << 20, 8 << 20} {
		column := o.segmentColumn(segment)
		segments = append(segments, tweak(fmt.Sprintf("%dKB", segment>>10), fmt.Sprintf("%d KB", segment>>10),
			func(c *src.Config) { c.SegmentColumn = column }))
	}
	return runDesign(o, "ablation-segsize", "Segment (paper-scale)", segments,
		view{"Ablation A2", "Segment size sweep (paper-scale; the paper fixes 2 MB), MB/s", mbpsCell,
			[]string{"smaller segments flush and pad more often; larger ones delay durability"}})
}

// segmentColumn is the column of a paper-scale segment striped over the
// 4-SSD array, scaled like segColumn (by at most 1/4) and at least four
// pages: the paper's 2 MB segment gets segColumn at every scale.
func (o Options) segmentColumn(segment int64) int64 {
	return max(segment/4/min(o.Scale, 4), 4*blockdev.PageSize)
}

// AblationGCSplit compares mixing S2S dirty copies into the host dirty
// buffer (the paper's implementation) against the future-work hot/cold
// separation (§6).
func AblationGCSplit(opts Options) ([]*Table, error) {
	return runDesign(opts, "ablation-gcsplit", "", []variant{
		tweak("split=false", "Mixed buffer", func(c *src.Config) { c.SeparateGCBuffer = false }),
		tweak("split=true", "Separate GC buffer", func(c *src.Config) { c.SeparateGCBuffer = true }),
	}, view{"Ablation A3", "Hot/cold separation of S2S copies (paper §6 future work), MB/s (I/O amplification)", ampCell, nil})
}

// AblationDegraded measures service with one SSD failed: PC keeps serving
// everything from the array; NPC falls back to primary storage for clean
// data (§4.3's reliability/performance trade, quantified).
func AblationDegraded(opts Options) ([]*Table, error) {
	o := opts.normalize()
	type pair struct{ healthy, degraded float64 }
	modes := []src.ParityMode{src.PC, src.NPC}
	groups := groupNames()
	results, err := gridCells(o, "ablation-degraded", len(groups), len(modes),
		func(r, c int) string { return fmt.Sprintf("%s/%v", groups[r], modes[c]) },
		func(r, c int) (pair, error) {
			healthy, degraded, err := degradedRun(o, groups[r], modes[c])
			if err != nil {
				return pair{}, fmt.Errorf("ablation degraded %v %s: %w", modes[c], groups[r], err)
			}
			return pair{healthy, degraded}, nil
		})
	if err != nil {
		return nil, err
	}
	return []*Table{gridTable("Ablation A4", "Degraded-mode throughput after one SSD failure (MB/s healthy -> degraded)",
		"Group", groups, []string{"PC", "NPC"},
		func(r, c int) string { return f1(results[r][c].healthy) + " -> " + f1(results[r][c].degraded) },
		"§4.3: with PC, caching service is not disrupted by SSD failure; NPC refetches clean data")}, nil
}

// faultedSRC builds SRC at Table 7's defaults in the given parity mode over
// SSDs behind fault plans, and returns the plans.
func faultedSRC(o Options, span int64, mode src.ParityMode) (*src.Cache, []*blockdev.FaultPlan, error) {
	var faults []*blockdev.FaultPlan
	cache, err := o.SRC(o.cachePerSSD(), PrimaryVolume(span), func(c *src.Config) {
		c.Parity = mode
		for i, d := range c.SSDs {
			faults = append(faults, blockdev.NewFaultPlan(d))
			c.SSDs[i] = faults[i]
		}
	})
	return cache, faults, err
}

// degradedRun measures a group's throughput healthy, fails one SSD, and
// measures again on the warmed cache.
func degradedRun(o Options, group string, mode src.ParityMode) (healthy, degraded float64, err error) {
	span, err := groupSpan(group, o)
	if err != nil {
		return 0, 0, err
	}
	cache, faults, err := faultedSRC(o, span, mode)
	if err != nil {
		return 0, 0, err
	}
	run1, err := runGroup(cache, group, o)
	if err != nil {
		return 0, 0, err
	}
	faults[0].Fail()
	run2, err := runGroupAt(cache, group, o, run1.End, 1, nil)
	if err != nil {
		return 0, 0, err
	}
	return run1.MBps, run2.MBps, nil
}

// AblationAdvanced compares SRC against a RIPQ-like advanced caching
// scheme (reference [50]) — the comparison the paper plans in §6. The
// RIPQ-like cache runs over RAID-0 of the same drives (it has no RAID
// support — paper Table 5) and is write-through (no write-back support),
// so the expectation is competitiveness on the Read group and collapse on
// the write-dominated groups.
func AblationAdvanced(opts Options) ([]*Table, error) {
	return runDesign(opts, "ablation-advanced", "", []variant{
		tweak("src", "SRC (RAID-5, write-back)", nil),
		{"ripq", "RIPQ-like (RAID-0, write-through)", buildRIPQ},
	}, view{"Ablation A5", "SRC vs RIPQ-like advanced cache (paper §6 future work), MB/s (hit ratio)", hitCell, []string{
		"RIPQ has no write-back and no RAID support (paper Table 5);",
		"it approximates a priority queue with erase-group-aligned block writes",
	}})
}

// buildRIPQ assembles the RIPQ-like cache over RAID-0 of four scaled SSDs,
// its blocks one array-wide erase group.
func buildRIPQ(o Options, span int64) (bench.Cache, error) {
	arr, ssds, err := o.RAIDVolume(raid.Level0, 128<<10, o.cachePerSSD())
	if err != nil {
		return nil, err
	}
	prim, err := newPrimary(PrimaryVolume(span))
	if err != nil {
		return nil, err
	}
	return baseline.NewRIPQ(baseline.Devices{Cache: arr, SSDs: ssds, Primary: prim}, 4*o.superblock())
}
