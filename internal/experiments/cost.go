package experiments

import (
	"fmt"

	"srccache/internal/bench"
	"srccache/internal/blockdev"
	"srccache/internal/costmodel"
	"srccache/internal/src"
	"srccache/internal/ssd"
)

// Section 5.3: cost-effectiveness.

// Table12 renders the device-economics data (Tables 4 and 12).
func Table12(Options) ([]*Table, error) {
	t4 := &Table{
		ID:      "Table 4",
		Title:   "Comparison of storage devices (manufacturer specifications)",
		Columns: []string{"Family", "Interface", "Capacity (GB)", "Price ($)", "SR (MB/s)", "SW (MB/s)", "RR (KIOPS)", "RW (KIOPS)"},
	}
	for _, d := range costmodel.Table4() {
		t4.Rows = append(t4.Rows, []string{
			d.Family, d.Iface.String(),
			fmt.Sprintf("%d", d.CapacityGB), fmt.Sprintf("%.0f", d.PriceUSD),
			fmt.Sprintf("%d", d.SeqReadMB), fmt.Sprintf("%d", d.SeqWriteMB),
			fmt.Sprintf("%d", d.RandReadK), fmt.Sprintf("%d", d.RandWriteK),
		})
	}
	t12 := &Table{
		ID:      "Table 12",
		Title:   "SATA and NVMe SSD configurations",
		Columns: []string{"Product", "Interface", "NAND", "Endurance", "Capacity", "Cost ($)", "GB/$", "Year"},
	}
	for _, p := range costmodel.Catalog() {
		t12.Rows = append(t12.Rows, []string{
			p.Label, p.Iface.String(), p.Cell.String(),
			fmt.Sprintf("%dK", p.Endurance/1000),
			fmt.Sprintf("%dx%dGB", p.Units, p.UnitGB),
			fmt.Sprintf("%.0f", p.PriceUSD),
			f2(p.GBPerDollar()),
			fmt.Sprintf("%d", p.Year),
		})
	}
	return []*Table{t4, t12}, nil
}

// productCache assembles an SRC cache for one Table 12 product: RAID-5 over
// the four SATA drives, or a single parityless NVMe drive.
func productCache(o Options, p costmodel.Product, span int64) (*src.Cache, error) {
	// Per-drive cache region scaled in proportion to the product's real
	// capacity, rounded to erase groups.
	region := o.cachePerSSD() * int64(p.UnitGB) / 128
	region -= region % o.superblock()
	devs := make([]blockdev.Device, p.Units)
	for i := range devs {
		d, err := ssd.New(o.scaled(p.DeviceConfig(fmt.Sprintf("%s-%d", p.Label, i), region)))
		if err != nil {
			return nil, err
		}
		devs[i] = d
	}
	prim, err := newPrimary(PrimaryVolume(span))
	if err != nil {
		return nil, err
	}
	return o.newSRC(devs, prim, func(cfg *src.Config) {
		if p.Units == 1 {
			cfg.Level = src.RAID0 // single high-end drive: no parity (paper §5.3)
			// The paper's segment is 2 MB in total; with one drive the
			// whole segment is a single column.
			cfg.SegmentColumn = o.segColumn() * 4
		}
	})
}

// Figure6 runs the cost-effectiveness study: throughput, MB/s per dollar,
// lifetime days (512 GB/day, measured WAF), and lifetime per dollar for
// each Table 12 product.
func Figure6(opts Options) ([]*Table, error) {
	products := costmodel.Catalog()
	var variants []variant
	for _, p := range products {
		variants = append(variants, variant{p.Label, p.Label, func(o Options, span int64) (bench.Cache, error) {
			return productCache(o, p, span)
		}})
	}
	lifetime := func(v int, run GroupRun) float64 {
		waf := run.WAF
		if waf <= 0 {
			waf = 1
		}
		p := products[v]
		return costmodel.LifetimeDays(p.Endurance, p.TotalBytes(), costmodel.DefaultDailyWriteBytes, waf)
	}
	return runDesign(opts, "fig6", "Product", variants,
		view{"Figure 6(a)", "Throughput (MB/s)", mbpsCell, []string{
			"paper shape: MLC arrays beat TLC on raw performance and lifetime;",
			"TLC arrays win performance/$; MLC arrays win lifetime/$;",
			"the single NVMe drive wins raw performance but loses on lifetime and is fail-stop",
		}},
		view{"Figure 6(b)", "Lifetime (days), 512 GB/day at measured WAF", func(v int, run GroupRun) string {
			return fmt.Sprintf("%.0f", lifetime(v, run))
		}, nil},
		view{"Figure 6(c)", "Performance per dollar ((MB/s)/$)", func(v int, run GroupRun) string {
			return f3(run.MBps / products[v].PriceUSD)
		}, nil},
		view{"Figure 6(d)", "Lifetime per dollar (days/$)", func(v int, run GroupRun) string {
			return f2(costmodel.LifetimePerDollar(lifetime(v, run), products[v].PriceUSD))
		}, nil})
}
