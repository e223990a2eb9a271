package experiments

import (
	"fmt"

	"srccache/internal/bench"
	"srccache/internal/src"
)

// Section 5.2: exploration of the SRC design space (Table 7). Each
// experiment drives the Write, Mixed, and Read trace groups against SRC
// with one parameter varied from the bold defaults; Figures 6–7 and the
// ablations run the same grid over other variants. A new design-space
// experiment is a list of variants and the tables to render from them.

// variant is one system in a design grid.
type variant struct {
	label  string // its part of a cell's progress label, e.g. "S2D/FIFO"
	header string // its row or column header in the rendered tables
	build  func(o Options, span int64) (bench.Cache, error)
}

// tweak is SRC at Table 7's defaults with f applied to its configuration.
func tweak(label, header string, f func(*src.Config)) variant {
	return variant{label, header, func(o Options, span int64) (bench.Cache, error) {
		return o.SRC(o.cachePerSSD(), PrimaryVolume(span), f)
	}}
}

// view is one table rendered from a design grid: cell formats variant v's
// run on one trace group.
type view struct {
	id, title string
	cell      func(v int, run GroupRun) string
	notes     []string
}

func ampCell(_ int, r GroupRun) string      { return f1(r.MBps) + "(" + f2(r.IOAmp) + ")" }
func hitCell(_ int, r GroupRun) string      { return f1(r.MBps) + "(" + f2(r.HitRatio) + ")" }
func mbpsCell(_ int, r GroupRun) string     { return f1(r.MBps) }
func ioAmpCell(_ int, r GroupRun) string    { return f2(r.IOAmp) }
func hitRatioCell(_ int, r GroupRun) string { return f2(r.HitRatio) }

// runDesign runs every variant against every trace group, one cell each,
// and renders one table per view. A non-empty corner lays the variants out
// as rows under that header, with the groups as columns; an empty one puts
// the groups in rows under "Group" and the variants in columns. Cells are
// labelled row/column and indexed row-major in that layout.
func runDesign(opts Options, exp, corner string, variants []variant, views ...view) ([]*Table, error) {
	o := opts.normalize()
	groups := groupNames()
	var vLabels, vHeaders []string
	for _, v := range variants {
		vLabels = append(vLabels, v.label)
		vHeaders = append(vHeaders, v.header)
	}
	byRow := corner != ""
	rowLabels, colLabels, rows, cols := vLabels, groups, vHeaders, groups
	if !byRow {
		corner, rowLabels, colLabels, rows, cols = "Group", groups, vLabels, groups, vHeaders
	}
	// pick maps a cell of the layout to its variant and trace group.
	pick := func(r, c int) (v, g int) {
		if byRow {
			return r, c
		}
		return c, r
	}
	results, err := gridCells(o, exp, len(rows), len(cols),
		func(r, c int) string { return rowLabels[r] + "/" + colLabels[c] },
		func(r, c int) (GroupRun, error) {
			vi, gi := pick(r, c)
			v, g := variants[vi], groups[gi]
			span, err := groupSpan(g, o)
			if err != nil {
				return GroupRun{}, err
			}
			cache, err := v.build(o, span)
			if err != nil {
				return GroupRun{}, fmt.Errorf("%s %s: %w", exp, v.label, err)
			}
			run, err := runGroup(cache, g, o)
			if err != nil {
				return GroupRun{}, fmt.Errorf("%s %s/%s: %w", exp, v.label, g, err)
			}
			return run, nil
		})
	if err != nil {
		return nil, err
	}
	tables := make([]*Table, len(views))
	for i, vw := range views {
		tables[i] = gridTable(vw.id, vw.title, corner, rows, cols,
			func(r, c int) string {
				v, _ := pick(r, c)
				return vw.cell(v, results[r][c])
			}, vw.notes...)
	}
	return tables, nil
}

// Figure4 sweeps SRC's assumed erase group size (the Segment Group column
// size) while the simulated SSD's internal erase group stays fixed,
// reporting throughput and I/O amplification per trace group.
func Figure4(opts Options) ([]*Table, error) {
	o := opts.normalize()
	// Paper sweep: 2..1024 MB around the measured 256 MB. Scaled by
	// o.Scale; labels report the unscaled equivalents.
	var sizes []variant
	for _, size := range []int64{2 << 20, 8 << 20, 32 << 20, 256 << 20, 1024 << 20} {
		scaled := max(size/o.Scale, 4*o.segColumn())
		sizes = append(sizes, tweak(fmt.Sprintf("%dMB", size>>20), fmt.Sprintf("%d MB", size>>20),
			func(c *src.Config) { c.EraseGroupSize = scaled }))
	}
	return runDesign(o, "fig4", "Erase group (paper-scale)", sizes,
		view{"Figure 4(a)", "SRC throughput (MB/s) vs erase group size (U_MAX 90%)", mbpsCell,
			[]string{"paper shape: performance improves with erase group size, ~flat past 256 MB"}},
		view{"Figure 4(b)", "SRC I/O amplification vs erase group size", ioAmpCell,
			[]string{"paper shape: amplification is lowest at the smallest size (better fill of small units)"}})
}

// Table8 compares free-space management: S2D vs Sel-GC crossed with
// FIFO vs Greedy victim selection (U_MAX 90%).
func Table8(opts Options) ([]*Table, error) {
	var combos []variant
	for _, gc := range []src.GCPolicy{src.S2D, src.SelGC} {
		for _, victim := range []src.VictimPolicy{src.FIFO, src.Greedy} {
			name := fmt.Sprintf("%v/%v", gc, victim)
			combos = append(combos, tweak(name, name, func(c *src.Config) { c.GC, c.Victim = gc, victim }))
		}
	}
	return runDesign(opts, "table8", "", combos,
		view{"Table 8", "Free space management performance, MB/s (I/O amplification)", ampCell, []string{
			"paper shape: Sel-GC considerably outperforms S2D; S2D shows lower amplification;",
			"FIFO slightly ahead for Write/Mixed, Greedy ahead for Read",
		}})
}

// Figure5 sweeps U_MAX for Sel-GC.
func Figure5(opts Options) ([]*Table, error) {
	var umaxes []variant
	for _, u := range []float64{0.30, 0.50, 0.70, 0.90, 0.95} {
		umaxes = append(umaxes, tweak(fmt.Sprintf("umax%.0f%%", u*100), fmt.Sprintf("%.0f%%", u*100),
			func(c *src.Config) { c.UMax = u }))
	}
	return runDesign(opts, "fig5", "U_MAX", umaxes,
		view{"Figure 5(a)", "SRC throughput (MB/s) vs U_MAX (Sel-GC, erase group 256 MB paper-scale)", mbpsCell,
			[]string{"paper shape: throughput peaks at 90%, drops at 95%; amplification rises with U_MAX"}},
		view{"Figure 5(b)", "SRC I/O amplification vs U_MAX", ioAmpCell, nil})
}

// Table9 compares Parity-for-Clean against No-Parity-for-Clean.
func Table9(opts Options) ([]*Table, error) {
	return runDesign(opts, "table9", "", []variant{
		tweak("PC", "PC", func(c *src.Config) { c.Parity = src.PC }),
		tweak("NPC", "NPC", func(c *src.Config) { c.Parity = src.NPC }),
	}, view{"Table 9", "PC vs NPC mode performance, MB/s (I/O amplification)", ampCell,
		[]string{"paper: NPC wins everywhere, most for the Write group (~18%)"}})
}

// Table10 compares the cache striping levels RAID-0/4/5.
func Table10(opts Options) ([]*Table, error) {
	return runDesign(opts, "table10", "", []variant{
		tweak("RAID-0", "RAID-0", func(c *src.Config) { c.Level = src.RAID0 }),
		tweak("RAID-4", "RAID-4", func(c *src.Config) { c.Level = src.RAID4 }),
		tweak("RAID-5", "RAID-5", func(c *src.Config) { c.Level = src.RAID5 }),
	}, view{"Table 10", "RAID level performance, MB/s (I/O amplification)", ampCell,
		[]string{"paper shape: RAID-0 best (~20% over RAID-5); RAID-5 slightly ahead of RAID-4"}})
}

// Table11 compares flush-command cadences: per segment write vs per
// Segment Group write.
func Table11(opts Options) ([]*Table, error) {
	return runDesign(opts, "table11", "", []variant{
		tweak("per-segment", "Per Segment", func(c *src.Config) { c.Flush = src.FlushPerSegment }),
		tweak("per-segment-group", "Per Segment Group", func(c *src.Config) { c.Flush = src.FlushPerSegmentGroup }),
	}, view{"Table 11", "Influence of flush command cadence, MB/s (I/O amplification)", ampCell,
		[]string{"paper: per-segment flushing costs ~10% on writes and >40% on the Read group"}})
}

func groupNames() []string { return []string{"Write", "Mixed", "Read"} }
