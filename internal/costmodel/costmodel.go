// Package costmodel carries the paper's device-economics data (Tables 4
// and 12) and the lifetime estimator used for the cost-effectiveness study
// (Figure 6): expected days to live from per-block endurance, capacity,
// daily write volume, and measured write amplification (after Jeong et
// al.'s lifetime estimation).
package costmodel

import "srccache/internal/ssd"

// Interface is the host interface class.
type Interface uint8

// Host interfaces.
const (
	SATA Interface = iota + 1
	NVMe
)

// String names the interface.
func (i Interface) String() string {
	if i == NVMe {
		return "NVMe"
	}
	return "SATA 3.0"
}

// Product is one purchasable configuration from Table 12: a set of
// identical drives and their street price.
type Product struct {
	// Label is the paper's legend name, e.g. "A-MLC(SATA)".
	Label string
	// Company is the manufacturer anonymization letter.
	Company string
	// Cell is the NAND technology.
	Cell ssd.CellType
	// Iface is the host interface.
	Iface Interface
	// Units and UnitGB describe the drive count and per-drive capacity.
	Units  int
	UnitGB int
	// PriceUSD is the total cost of all units.
	PriceUSD float64
	// Endurance is the per-block P/E budget (3K MLC, 1K TLC).
	Endurance int64
	// Year is the release year.
	Year int
}

// TotalBytes is the raw capacity of all units (decimal GB as marketed).
func (p Product) TotalBytes() int64 { return int64(p.Units) * int64(p.UnitGB) * 1e9 }

// GBPerDollar is Table 12's capacity-per-dollar metric.
func (p Product) GBPerDollar() float64 {
	return float64(p.Units*p.UnitGB) / p.PriceUSD
}

// DeviceConfig builds the simulated-drive configuration for one unit of
// this product with the given per-drive capacity (experiments scale
// capacities down; price and endurance describe the real product).
func (p Product) DeviceConfig(name string, capacity int64) ssd.Config {
	var cfg ssd.Config
	switch {
	case p.Iface == NVMe:
		cfg = ssd.NVMeMLCConfig(name, capacity)
	case p.Cell == ssd.TLC:
		cfg = ssd.SATATLCConfig(name, capacity)
	default:
		cfg = ssd.SATAMLCConfig(name, capacity)
	}
	cfg.EnduranceCycles = p.Endurance
	// Company B's drives are a hair slower than A's at the same cell type
	// (Table 12 shows them cheaper, Figure 6 slightly slower).
	if p.Company == "B" {
		cfg.ProgramLatency += cfg.ProgramLatency / 10
	}
	return cfg
}

// Catalog returns the five Table 12 configurations.
func Catalog() []Product {
	return []Product{
		{Label: "A-MLC(SATA)", Company: "A", Cell: ssd.MLC, Iface: SATA, Units: 4, UnitGB: 128, PriceUSD: 418, Endurance: 3000, Year: 2012},
		{Label: "A-TLC(SATA)", Company: "A", Cell: ssd.TLC, Iface: SATA, Units: 4, UnitGB: 120, PriceUSD: 272, Endurance: 1000, Year: 2013},
		{Label: "B-MLC(SATA)", Company: "B", Cell: ssd.MLC, Iface: SATA, Units: 4, UnitGB: 128, PriceUSD: 374, Endurance: 3000, Year: 2014},
		{Label: "B-TLC(SATA)", Company: "B", Cell: ssd.TLC, Iface: SATA, Units: 4, UnitGB: 128, PriceUSD: 225, Endurance: 1000, Year: 2014},
		{Label: "C-MLC(NVMe)", Company: "C", Cell: ssd.MLC, Iface: NVMe, Units: 1, UnitGB: 400, PriceUSD: 469, Endurance: 3000, Year: 2015},
	}
}

// Table4Device is one column of the paper's Table 4 price/performance
// comparison.
type Table4Device struct {
	Family     string
	Iface      Interface
	CapacityGB int
	PriceUSD   float64
	SeqReadMB  int
	SeqWriteMB int
	RandReadK  int
	RandWriteK int
}

// Table4 returns the device comparison data (SSD-A SATA line, SSD-B NVMe
// line).
func Table4() []Table4Device {
	return []Table4Device{
		{"SSD-A", SATA, 128, 129, 530, 390, 97, 90},
		{"SSD-A", SATA, 256, 206, 540, 520, 100, 90},
		{"SSD-A", SATA, 512, 435, 540, 520, 100, 90},
		{"SSD-B", NVMe, 400, 922, 2700, 1080, 450, 75},
		{"SSD-B", NVMe, 800, 1398, 2800, 1900, 460, 90},
		{"SSD-B", NVMe, 1600, 3796, 2800, 1900, 450, 150},
		{"SSD-B", NVMe, 2000, 4250, 2800, 2000, 450, 175},
	}
}

// DefaultDailyWriteBytes is the paper's Figure 6 assumption: 512 GB of
// workload writes processed per day.
const DefaultDailyWriteBytes = 512e9

// LifetimeDays estimates expected days to live: the total erase budget
// (endurance × capacity) divided by the daily flash wear (daily host
// writes × write amplification).
func LifetimeDays(endurance, totalBytes int64, dailyWriteBytes, waf float64) float64 {
	if dailyWriteBytes <= 0 || waf <= 0 {
		return 0
	}
	return float64(endurance) * float64(totalBytes) / (dailyWriteBytes * waf)
}

// LifetimePerDollar is Figure 6(d): lifetime days per dollar spent.
func LifetimePerDollar(days, priceUSD float64) float64 {
	if priceUSD <= 0 {
		return 0
	}
	return days / priceUSD
}
