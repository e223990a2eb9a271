// Package ssd models a commodity SSD: a page-mapped FTL over NAND flash
// (internal/flash) with channel/way parallelism, a volatile DRAM write
// cache, over-provisioned space, greedy garbage collection, TRIM, and a host
// link (SATA or NVMe). The behaviours the paper's design depends on —
// sustained-write degradation for small random writes, the erase-group-size
// performance cliff (Fig. 2), the cost of the flush command (Table 3), and
// wear/lifetime — all emerge mechanistically from this model rather than
// from fitted curves.
package ssd

import (
	"fmt"

	"srccache/internal/blockdev"
	"srccache/internal/vtime"
)

// CellType identifies the NAND cell technology, which drives endurance and
// program latency.
type CellType uint8

// Supported cell technologies.
const (
	MLC CellType = iota + 1
	TLC
)

// String names the cell type.
func (c CellType) String() string {
	switch c {
	case MLC:
		return "MLC"
	case TLC:
		return "TLC"
	default:
		return fmt.Sprintf("cell(%d)", uint8(c))
	}
}

// Config describes one SSD. Zero fields are filled with defaults by
// Validate; the packaged presets (SATAMLCConfig etc.) model the product
// classes in the paper's Tables 4 and 12.
type Config struct {
	// Name labels the device in stats and experiment output.
	Name string
	// Capacity is the host-visible size in bytes.
	Capacity int64
	// EraseGroupSize is the size of the FTL's allocation/erase unit (the
	// paper's "erase group"), default 256 MiB.
	EraseGroupSize int64
	// Parallelism is the number of flash units (channel × way) that can
	// read/program concurrently (default 16).
	Parallelism int
	// ProgramLatency is the per-page program time (default 150 µs MLC).
	ProgramLatency vtime.Duration
	// LinkBandwidth is the host interface bandwidth in bytes/s
	// (default 550 MB/s, SATA 3.0).
	LinkBandwidth float64
	// CommandOverhead is the per-command host interface latency; it bounds
	// small-request IOPS (default 10 µs ≈ 100 K IOPS over SATA).
	CommandOverhead vtime.Duration
	// WriteCacheBytes is the volatile DRAM write buffer (default 64 MiB —
	// commodity drives dedicate only part of their DRAM to write
	// caching).
	WriteCacheBytes int64
	// EnduranceCycles is the per-block P/E budget (3000 MLC, 1000 TLC).
	EnduranceCycles int64
	// Cell is the NAND technology (default MLC).
	Cell CellType
}

// MinSpareGroups is the minimum number of spare erase groups the FTL needs
// so garbage collection always has a destination.
const MinSpareGroups = 2

// No experiment varies the drive parameters below: they are the paper's
// commodity-SATA values for every product class.
const (
	// spareFactor is physical over-provisioning as a fraction of Capacity,
	// typical for commodity SATA drives. Physical space is rounded up so at
	// least MinSpareGroups erase groups of headroom exist.
	spareFactor = 0.07
	// pagesPerBlock is the NAND block size in pages (1 MiB).
	pagesPerBlock = 256
	// readLatency is the per-page flash read time.
	readLatency = 60 * vtime.Microsecond
	// eraseLatency is the per-block erase time.
	eraseLatency = 2 * vtime.Millisecond
	// flushLatency is the firmware cost of a FLUSH CACHE command on top of
	// draining the write cache.
	flushLatency = 2 * vtime.Millisecond
	// logGranules is the number of erase-group-sized regions the FTL can
	// keep "open" for fragmented (non-sequential) host writes before it
	// must merge one — the hybrid-FTL log-block pool that makes write
	// performance collapse when write units are much smaller than the
	// erase group (the paper's Figure 2 behaviour).
	logGranules = 8
)

// Validate fills defaults and checks invariants, returning the effective
// configuration.
func (c Config) Validate() (Config, error) {
	if c.Name == "" {
		c.Name = "ssd"
	}
	if c.Capacity <= 0 {
		return c, fmt.Errorf("ssd %s: capacity %d must be positive", c.Name, c.Capacity)
	}
	if c.EraseGroupSize == 0 {
		c.EraseGroupSize = 256 << 20
	}
	if c.Parallelism == 0 {
		c.Parallelism = 16
	}
	if c.ProgramLatency == 0 {
		c.ProgramLatency = 150 * vtime.Microsecond
	}
	if c.LinkBandwidth == 0 {
		c.LinkBandwidth = 550e6
	}
	if c.CommandOverhead == 0 {
		c.CommandOverhead = 10 * vtime.Microsecond
	}
	if c.WriteCacheBytes == 0 {
		c.WriteCacheBytes = 64 << 20
	}
	if c.EnduranceCycles == 0 {
		c.EnduranceCycles = 3000
	}
	if c.Cell == 0 {
		c.Cell = MLC
	}
	blockBytes := int64(pagesPerBlock) * blockdev.PageSize
	if c.EraseGroupSize%blockBytes != 0 {
		return c, fmt.Errorf("ssd %s: erase group %d not a multiple of block size %d", c.Name, c.EraseGroupSize, blockBytes)
	}
	if c.Capacity%blockdev.PageSize != 0 {
		return c, fmt.Errorf("ssd %s: capacity %d not page-aligned", c.Name, c.Capacity)
	}
	return c, nil
}

// SustainedProgramRate reports the aggregate flash program bandwidth in
// bytes/s — the sustained write ceiling once the DRAM cache is full.
func (c Config) SustainedProgramRate() float64 {
	if c.ProgramLatency <= 0 {
		return 0
	}
	return float64(c.Parallelism) * float64(blockdev.PageSize) / c.ProgramLatency.Seconds()
}

// SATAMLCConfig models a commodity SATA 3.0 MLC drive of the 840 Pro class
// used in the paper's prototype (Table 1): ~530 MB/s reads, ~400 MB/s
// sustained writes, ~100 K IOPS, 3 K P/E cycles.
func SATAMLCConfig(name string, capacity int64) Config {
	return Config{
		Name:            name,
		Capacity:        capacity,
		Cell:            MLC,
		EnduranceCycles: 3000,
		ProgramLatency:  150 * vtime.Microsecond,
		LinkBandwidth:   550e6,
	}
}

// SATATLCConfig models a budget SATA TLC drive: cheaper per GB, slower
// programs, 1 K P/E cycles.
func SATATLCConfig(name string, capacity int64) Config {
	return Config{
		Name:            name,
		Capacity:        capacity,
		Cell:            TLC,
		EnduranceCycles: 1000,
		ProgramLatency:  260 * vtime.Microsecond,
		LinkBandwidth:   530e6,
	}
}

// NVMeMLCConfig models a high-end PCI-e/NVMe MLC drive of the SSD-B class in
// Table 4: ~2.7 GB/s reads, ~1.1 GB/s sustained writes, ~450 K IOPS.
func NVMeMLCConfig(name string, capacity int64) Config {
	return Config{
		Name:            name,
		Capacity:        capacity,
		Cell:            MLC,
		EnduranceCycles: 3000,
		Parallelism:     32,
		ProgramLatency:  120 * vtime.Microsecond,
		LinkBandwidth:   2700e6,
		CommandOverhead: 2 * vtime.Microsecond,
		WriteCacheBytes: 128 << 20,
	}
}
