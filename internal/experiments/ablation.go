package experiments

import (
	"fmt"

	"srccache/internal/blockdev"
	"srccache/internal/raid"
	"srccache/internal/ripqsim"
	"srccache/internal/src"
	"srccache/internal/ssd"
)

// Ablations beyond the paper's published tables (DESIGN.md §5): the design
// choices §4 calls out but the evaluation does not sweep, plus the §6
// future-work features implemented in this reproduction.

// AblationVictim extends Table 8's victim-selection comparison with the
// future-work Cost-Benefit policy.
func AblationVictim(opts Options) ([]*Table, error) {
	o := opts.normalize()
	t := &Table{
		ID:      "Ablation A1",
		Title:   "Victim selection under Sel-GC, MB/s (I/O amplification) — includes future-work Cost-Benefit",
		Columns: []string{"Group", "FIFO", "Greedy", "Cost-Benefit"},
		Notes:   []string{"beyond the paper: §6 lists other victim policies as future work"},
	}
	policies := []src.VictimPolicy{src.FIFO, src.Greedy, src.CostBenefit}
	groups := groupNames()
	results, err := gridCells(o, "ablation-victim", len(groups), len(policies),
		func(r, c int) string { return fmt.Sprintf("%s/%v", groups[r], policies[c]) },
		func(r, c int) (GroupRun, error) {
			v := policies[c]
			run, err := srcGroupRun(o, groups[r], func(cfg *src.Config) { cfg.Victim = v })
			if err != nil {
				return GroupRun{}, fmt.Errorf("ablation victim %v %s: %w", v, groups[r], err)
			}
			return run, nil
		})
	if err != nil {
		return nil, err
	}
	for r, g := range groups {
		row := []string{g}
		for c := range policies {
			row = append(row, fmt.Sprintf("%s(%s)", f1(results[r][c].MBps), f2(results[r][c].IOAmp)))
		}
		t.Rows = append(t.Rows, row)
	}
	return []*Table{t}, nil
}

// AblationSegmentSize sweeps the segment size — §4.1 calls 2 MB "an
// implementation choice made as it is the largest unit in which data can
// be transferred"; this quantifies the choice.
func AblationSegmentSize(opts Options) ([]*Table, error) {
	o := opts.normalize()
	t := &Table{
		ID:      "Ablation A2",
		Title:   "Segment size sweep (paper-scale; the paper fixes 2 MB), MB/s",
		Columns: []string{"Segment (paper-scale)"},
		Notes:   []string{"smaller segments flush and pad more often; larger ones delay durability"},
	}
	groups := groupNames()
	t.Columns = append(t.Columns, groups...)
	// Paper-scale segment sizes: column = segment/4 for the 4-SSD array.
	segments := []int64{512 << 10, 2 << 20, 8 << 20}
	results, err := gridCells(o, "ablation-segsize", len(segments), len(groups),
		func(r, c int) string { return fmt.Sprintf("%dKB/%s", segments[r]>>10, groups[c]) },
		func(r, c int) (GroupRun, error) {
			segment := segments[r]
			column := segment / 4 / (o.Scale / 4)
			if column < 4*blockdev.PageSize {
				column = 4 * blockdev.PageSize
			}
			run, err := srcGroupRun(o, groups[c], func(cfg *src.Config) { cfg.SegmentColumn = column })
			if err != nil {
				return GroupRun{}, fmt.Errorf("ablation segment %d %s: %w", segment, groups[c], err)
			}
			return run, nil
		})
	if err != nil {
		return nil, err
	}
	for r, segment := range segments {
		row := []string{fmt.Sprintf("%d KB", segment>>10)}
		for c := range groups {
			row = append(row, f1(results[r][c].MBps))
		}
		t.Rows = append(t.Rows, row)
	}
	return []*Table{t}, nil
}

// AblationGCSplit compares mixing S2S dirty copies into the host dirty
// buffer (the paper's implementation) against the future-work hot/cold
// separation (§6).
func AblationGCSplit(opts Options) ([]*Table, error) {
	o := opts.normalize()
	t := &Table{
		ID:      "Ablation A3",
		Title:   "Hot/cold separation of S2S copies (paper §6 future work), MB/s (I/O amplification)",
		Columns: []string{"Group", "Mixed buffer", "Separate GC buffer"},
	}
	splits := []bool{false, true}
	groups := groupNames()
	results, err := gridCells(o, "ablation-gcsplit", len(groups), len(splits),
		func(r, c int) string { return fmt.Sprintf("%s/split=%v", groups[r], splits[c]) },
		func(r, c int) (GroupRun, error) {
			split := splits[c]
			run, err := srcGroupRun(o, groups[r], func(cfg *src.Config) { cfg.SeparateGCBuffer = split })
			if err != nil {
				return GroupRun{}, fmt.Errorf("ablation gcsplit %v %s: %w", split, groups[r], err)
			}
			return run, nil
		})
	if err != nil {
		return nil, err
	}
	for r, g := range groups {
		row := []string{g}
		for c := range splits {
			row = append(row, fmt.Sprintf("%s(%s)", f1(results[r][c].MBps), f2(results[r][c].IOAmp)))
		}
		t.Rows = append(t.Rows, row)
	}
	return []*Table{t}, nil
}

// AblationDegraded measures service with one SSD failed: PC keeps serving
// everything from the array; NPC falls back to primary storage for clean
// data (§4.3's reliability/performance trade, quantified).
func AblationDegraded(opts Options) ([]*Table, error) {
	o := opts.normalize()
	t := &Table{
		ID:      "Ablation A4",
		Title:   "Degraded-mode throughput after one SSD failure (MB/s healthy -> degraded)",
		Columns: []string{"Group", "PC", "NPC"},
		Notes:   []string{"§4.3: with PC, caching service is not disrupted by SSD failure; NPC refetches clean data"},
	}
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
	for r, g := range groups {
		row := []string{g}
		for c := range modes {
			row = append(row, fmt.Sprintf("%s -> %s", f1(results[r][c].healthy), f1(results[r][c].degraded)))
		}
		t.Rows = append(t.Rows, row)
	}
	return []*Table{t}, nil
}

// degradedRun measures a group's throughput healthy, fails one SSD, and
// measures again on the warmed cache.
func degradedRun(o Options, group string, mode src.ParityMode) (healthy, degraded float64, err error) {
	span, err := groupSpan(group, o)
	if err != nil {
		return 0, 0, err
	}
	devs, _, err := newSSDs(4, func(i int) ssd.Config { return o.ssdConfig(fmt.Sprintf("ssd%d", i)) })
	if err != nil {
		return 0, 0, err
	}
	faults := make([]*blockdev.FaultPlan, len(devs))
	wrapped := make([]blockdev.Device, len(devs))
	for i, d := range devs {
		faults[i] = blockdev.NewFaultPlan(d)
		wrapped[i] = faults[i]
	}
	prim, err := newPrimary(span)
	if err != nil {
		return 0, 0, err
	}
	cache, err := src.New(src.Config{
		SSDs:           wrapped,
		Primary:        prim,
		EraseGroupSize: o.superblock(),
		SegmentColumn:  o.segColumn(),
		Parity:         mode,
	})
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
	o := opts.normalize()
	t := &Table{
		ID:      "Ablation A5",
		Title:   "SRC vs RIPQ-like advanced cache (paper §6 future work), MB/s (hit ratio)",
		Columns: []string{"Group", "SRC (RAID-5, write-back)", "RIPQ-like (RAID-0, write-through)"},
		Notes: []string{
			"RIPQ has no write-back and no RAID support (paper Table 5);",
			"it approximates a priority queue with erase-group-aligned block writes",
		},
	}
	systems := []string{"src", "ripq"}
	groups := groupNames()
	results, err := gridCells(o, "ablation-advanced", len(groups), len(systems),
		func(r, c int) string { return fmt.Sprintf("%s/%s", groups[r], systems[c]) },
		func(r, c int) (GroupRun, error) {
			g := groups[r]
			if c == 0 {
				run, err := srcGroupRun(o, g, nil)
				if err != nil {
					return GroupRun{}, fmt.Errorf("ablation advanced src %s: %w", g, err)
				}
				return run, nil
			}
			span, err := groupSpan(g, o)
			if err != nil {
				return GroupRun{}, err
			}
			arr, ssds, err := buildRAIDVolume(o, raid.Level0, 128<<10)
			if err != nil {
				return GroupRun{}, err
			}
			prim, err := newPrimary(span)
			if err != nil {
				return GroupRun{}, err
			}
			ripq, err := ripqsim.New(ripqsim.Config{
				Cache:      arr,
				SSDs:       ssds,
				Primary:    prim,
				BlockBytes: 4 * o.superblock(), // array-wide erase group
			})
			if err != nil {
				return GroupRun{}, err
			}
			run, err := runGroup(ripq, g, o)
			if err != nil {
				return GroupRun{}, fmt.Errorf("ablation advanced ripq %s: %w", g, err)
			}
			return run, nil
		})
	if err != nil {
		return nil, err
	}
	for r, g := range groups {
		row := []string{g}
		for c := range systems {
			row = append(row, fmt.Sprintf("%s(%s)", f1(results[r][c].MBps), f2(results[r][c].HitRatio)))
		}
		t.Rows = append(t.Rows, row)
	}
	return []*Table{t}, nil
}
