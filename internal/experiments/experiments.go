// Package experiments regenerates every table and figure of the paper's
// evaluation (Sections 3 and 5) on the simulated substrate: the motivation
// studies (Tables 2–3, Figures 1–2), the SRC design-space exploration
// (Figure 4, Tables 8–11, Figure 5), the cost-effectiveness study
// (Tables 4/12, Figure 6), and the headline comparison against Bcache5 and
// Flashcache5 (Figure 7).
//
// Sizes default to 1/16 of the paper's (Section "Scaling note" in
// DESIGN.md), and the tables are checked at that scale: scaling keeps the
// ratio of cache capacity to working set, but some verdicts still move
// between 1/16 and the paper's own sizes. Absolute MB/s values are those
// of the simulated devices; the reproduction target is the shape of each
// result.
package experiments

import (
	"fmt"
	"io"
	"strings"

	"srccache/internal/bench"
	"srccache/internal/blockdev"
	"srccache/internal/primary"
	"srccache/internal/src"
	"srccache/internal/ssd"
	"srccache/internal/trace"
	"srccache/internal/vtime"
	"srccache/internal/workload"
)

// Options tunes experiment scale. The zero value gives the defaults.
type Options struct {
	// Scale divides the paper's sizes: SSD erase groups, segment columns,
	// cache regions, and trace footprints (default 16, rounded up to a
	// power of two so every geometry stays aligned).
	Scale int64
	// Requests is the request budget per measured run (default 160000).
	Requests int64
	// Seed perturbs workload generation.
	Seed int64
	// Parallel caps the number of experiment cells simulated concurrently
	// (default 1: serial). Cells are independent virtual-time simulations
	// and results are assembled in canonical order, so any value yields
	// byte-identical tables.
	Parallel int
	// Progress, when non-nil, receives one event per completed cell. With
	// Parallel > 1 it may be invoked from multiple goroutines.
	Progress func(CellEvent)
}

func (o Options) normalize() Options {
	if o.Scale == 0 {
		o.Scale = 16
	}
	for p := int64(1); ; p <<= 1 {
		if p >= o.Scale {
			o.Scale = p
			break
		}
	}
	if o.Requests == 0 {
		o.Requests = 200_000
	}
	return o
}

// Scaled geometry derived from Options.
func (o Options) superblock() int64 { return 256 << 20 / o.Scale } // SSD erase group
func (o Options) segColumn() int64 {
	// Segment columns scale less aggressively than capacities (at most
	// 1/4): the per-segment flush cadence of Table 11 depends on the
	// absolute segment size relative to the flush cost.
	div := o.Scale
	if div > 4 {
		div = 4
	}
	return 512 << 10 / div
}
func (o Options) cachePerSSD() int64  { return 4 << 30 / o.Scale } // paper: ~4.5 GB/SSD of 18 GB total
func (o Options) traceScale() float64 { return 1 / float64(o.Scale) }

// ssdConfig builds the default cache-drive model (SATA MLC of the
// prototype's 840 Pro class) at experiment scale.
func (o Options) ssdConfig(name string) ssd.Config {
	cfg := ssd.SATAMLCConfig(name, o.cachePerSSD())
	cfg.EraseGroupSize = o.superblock()
	cfg.WriteCacheBytes = 64 << 20 / o.Scale
	return cfg
}

// newSSDs builds n cache drives from a base config.
func newSSDs(n int, mk func(i int) ssd.Config) ([]blockdev.Device, []*ssd.SSD, error) {
	devs := make([]blockdev.Device, n)
	raw := make([]*ssd.SSD, n)
	for i := 0; i < n; i++ {
		d, err := ssd.New(mk(i))
		if err != nil {
			return nil, nil, err
		}
		devs[i] = d
		raw[i] = d
	}
	return devs, raw, nil
}

// newPrimary builds the HDD RAID-10 backend sized to cover span bytes.
func newPrimary(span int64) (*primary.Storage, error) {
	perDisk := (span/4 + (64 << 20)) // RAID-10 of 8 disks: 4 data spindles
	perDisk -= perDisk % (64 << 10)
	return primary.New(primary.Config{DiskCapacity: perDisk})
}

// traceSetup builds the synthetic sources for one trace group, laid out
// side by side in the primary volume's address space, plus the volume span
// they cover. seedOffset perturbs the streams (for second passes).
func traceSetup(group string, o Options, seedOffset int64) ([]workload.Source, int64, error) {
	specs, err := trace.Group(group)
	if err != nil {
		return nil, 0, err
	}
	sources := make([]workload.Source, 0, len(specs))
	var offset int64
	for _, spec := range specs {
		s, err := trace.NewSynth(trace.SynthConfig{
			Spec:   spec,
			Scale:  o.traceScale(),
			Offset: offset,
			Seed:   o.Seed + seedOffset,
		})
		if err != nil {
			return nil, 0, err
		}
		offset += s.Span()
		sources = append(sources, s)
	}
	return sources, offset, nil
}

// GroupRun is the measured outcome of driving one system with one trace
// group.
type GroupRun struct {
	Group     string
	MBps      float64
	IOAmp     float64
	HitRatio  float64
	WAF       float64 // combined cache-layer × SSD-internal amplification
	Makespan  vtime.Duration
	End       vtime.Time
	HostBytes int64
}

// runGroup drives cache with the named trace group at the paper's
// 4-threads-per-trace concurrency and derives the evaluation metrics.
func runGroup(cache bench.Cache, group string, o Options) (GroupRun, error) {
	return runGroupAt(cache, group, o, 0, 0, nil)
}

// runGroupAt is runGroup starting at a given virtual time with a perturbed
// seed — used for second passes (e.g. degraded-mode measurement on a
// warmed cache). interleave, when non-nil, rides along with the foreground
// requests (see bench.Options.Interleave).
func runGroupAt(cache bench.Cache, group string, o Options, start vtime.Time, seedOffset int64, interleave func(vtime.Time) (vtime.Time, error)) (GroupRun, error) {
	sources, _, err := traceSetup(group, o, seedOffset)
	if err != nil {
		return GroupRun{}, err
	}
	devs := cache.CacheDevices()
	before := bench.SnapshotDevices(devs)
	res, err := bench.Run(cache, sources, bench.Options{
		SlotsPerSource: 4,
		MaxRequests:    o.Requests,
		Start:          start,
		Interleave:     interleave,
	})
	if err != nil {
		return GroupRun{}, err
	}
	deviceBytes := bench.DeltaBytes(devs, before)
	run := GroupRun{
		Group:     group,
		MBps:      res.MBps(),
		IOAmp:     bench.IOAmplification(res.Bytes, deviceBytes),
		HitRatio:  cache.Counters().HitRatio(),
		Makespan:  res.Makespan(),
		End:       res.End,
		HostBytes: res.Bytes,
	}
	run.WAF = combinedWAF(cache, res.WriteBytes)
	return run, nil
}

// combinedWAF multiplies the cache layer's write amplification (flash-bound
// writes per host write) by the SSD-internal WAF, the quantity the
// lifetime model consumes.
func combinedWAF(cache bench.Cache, hostWriteBytes int64) float64 {
	var ssdWrites int64
	var flashWAF float64
	var nFlash int
	for _, d := range cache.CacheDevices() {
		ssdWrites += d.Stats().WriteBytes
		if s, ok := d.(*ssd.SSD); ok {
			if w := s.WAF(); w > 0 {
				flashWAF += w
				nFlash++
			}
		}
	}
	if hostWriteBytes == 0 {
		return 0
	}
	cacheWAF := float64(ssdWrites) / float64(hostWriteBytes)
	if nFlash > 0 {
		cacheWAF *= flashWAF / float64(nFlash)
	}
	return cacheWAF
}

// buildSRC assembles an SRC cache over fresh scaled SSDs, applying tweak to
// the configuration before validation.
func buildSRC(o Options, span int64, tweak func(*src.Config)) (*src.Cache, error) {
	devs, _, err := newSSDs(4, func(i int) ssd.Config { return o.ssdConfig(fmt.Sprintf("ssd%d", i)) })
	if err != nil {
		return nil, err
	}
	prim, err := newPrimary(span)
	if err != nil {
		return nil, err
	}
	cfg := src.Config{
		SSDs:           devs,
		Primary:        prim,
		EraseGroupSize: o.superblock(),
		SegmentColumn:  o.segColumn(),
	}
	if tweak != nil {
		tweak(&cfg)
	}
	return src.New(cfg)
}

// groupSpan reports the primary-volume span a trace group needs.
func groupSpan(group string, o Options) (int64, error) {
	_, span, err := traceSetup(group, o, 0)
	return span, err
}

// Table is a rendered result.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// Fprint renders the table as aligned text.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "=== %s: %s ===\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	printRow := func(cells []string) {
		parts := make([]string, len(cells))
		for i, cell := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], cell)
		}
		fmt.Fprintln(w, "  "+strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	printRow(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	printRow(sep)
	for _, row := range t.Rows {
		printRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }

// Experiment is a runnable reproduction of one paper result.
type Experiment struct {
	Name  string // registry key, e.g. "table2"
	Paper string // what it reproduces
	Run   func(Options) ([]*Table, error)
}

// All returns the experiment registry in the paper's presentation order.
func All() []Experiment {
	return []Experiment{
		{"table2", "Table 2: WT vs WB for Bcache/Flashcache on one SSD", Table2},
		{"table3", "Table 3: impact of the flush command on a raw SSD", Table3},
		{"fig1", "Figure 1: Bcache/Flashcache over RAID-0/1/4/5", Figure1},
		{"fig2", "Figure 2: erase-group-size extraction vs OPS", Figure2},
		{"fig4", "Figure 4: SRC erase group size sweep", Figure4},
		{"table8", "Table 8: free space management (S2D vs Sel-GC x FIFO/Greedy)", Table8},
		{"fig5", "Figure 5: U_MAX sweep for Sel-GC", Figure5},
		{"table9", "Table 9: PC vs NPC clean-data redundancy", Table9},
		{"table10", "Table 10: RAID level (0/4/5)", Table10},
		{"table11", "Table 11: flush per segment vs per segment group", Table11},
		{"table12", "Tables 4+12: device catalog", Table12},
		{"fig6", "Figure 6: cost-effectiveness (SATA arrays vs NVMe)", Figure6},
		{"fig7", "Figure 7: SRC vs SRC-S2D vs Bcache5 vs Flashcache5", Figure7},
		{"ablation-victim", "Ablation A1: victim selection incl. future-work Cost-Benefit", AblationVictim},
		{"ablation-segsize", "Ablation A2: segment size sweep (paper fixes 2 MB)", AblationSegmentSize},
		{"ablation-gcsplit", "Ablation A3: hot/cold separation of S2S copies (future work)", AblationGCSplit},
		{"ablation-degraded", "Ablation A4: degraded-mode service, PC vs NPC", AblationDegraded},
		{"ablation-advanced", "Ablation A5: SRC vs RIPQ-like advanced cache (future work)", AblationAdvanced},
		{"ablation-rebuild", "Ablation A6: online rebuild after SSD replacement, throughput and MTTR", AblationRebuild},
	}
}

// Lookup finds an experiment by name.
func Lookup(name string) (Experiment, error) {
	for _, e := range All() {
		if e.Name == name {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("experiments: unknown experiment %q", name)
}
