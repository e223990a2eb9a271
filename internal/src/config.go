// Package src implements SRC (SSD RAID as a Cache), the paper's primary
// contribution: a write-back, log-structured, RAID-protected block cache
// over an array of commodity SSDs (Section 4).
//
// Cache space is organized into Segment Groups (SGs) sized to the array's
// erase group; each SG is divided into segments striped as one column per
// SSD. Dirty and clean data collect in separate in-RAM segment buffers and
// are written as whole segments — data, per-SSD metadata blocks (MS at the
// column start, ME at the end), and parity — into the single active SG, so
// parity never needs read-modify-write. Free space is reclaimed either by
// destaging to primary storage (S2D) or by copying live data between SSDs
// (Sel-GC, chosen by utilization and hotness). Clean data may be striped
// without parity (NPC mode) since it can always be re-fetched from primary
// storage.
package src

import (
	"fmt"

	"srccache/internal/blockdev"
)

// GCPolicy selects how free Segment Groups are produced (paper §4.2).
type GCPolicy int

// GC policies.
const (
	// S2D destages dirty data to primary storage and drops clean data.
	S2D GCPolicy = iota + 1
	// SelGC copies dirty and hot clean data SSD-to-SSD while utilization
	// is below UMax, falling back to S2D above it.
	SelGC
)

// String names the policy as in the paper.
func (p GCPolicy) String() string {
	switch p {
	case S2D:
		return "S2D"
	case SelGC:
		return "Sel-GC"
	default:
		return fmt.Sprintf("gc(%d)", int(p))
	}
}

// VictimPolicy selects the Segment Group to reclaim.
type VictimPolicy int

// Victim policies.
const (
	// FIFO reclaims groups in the order they were filled.
	FIFO VictimPolicy = iota + 1
	// Greedy reclaims the least-utilized group.
	Greedy
	// CostBenefit weighs free space against age, LFS-style
	// (benefit/cost = age x (1-u) / (1+u)) — one of the "other victim SG
	// selection policies" the paper lists as future work (§6).
	CostBenefit
)

// String names the policy.
func (p VictimPolicy) String() string {
	switch p {
	case FIFO:
		return "FIFO"
	case Greedy:
		return "Greedy"
	case CostBenefit:
		return "Cost-Benefit"
	default:
		return fmt.Sprintf("victim(%d)", int(p))
	}
}

// ParityMode controls redundancy for clean data (paper §4.3).
type ParityMode int

// Parity modes.
const (
	// PC (Parity for Clean) protects clean segments with parity too.
	PC ParityMode = iota + 1
	// NPC (No-Parity for Clean) stripes clean segments without parity;
	// clean data lost to an SSD failure is re-fetched from primary.
	NPC
)

// String names the mode.
func (p ParityMode) String() string {
	switch p {
	case PC:
		return "PC"
	case NPC:
		return "NPC"
	default:
		return fmt.Sprintf("parity(%d)", int(p))
	}
}

// RAIDLevel selects the cache-level striping (paper Table 7: 0, 4, 5).
type RAIDLevel int

// Cache striping levels.
const (
	RAID0 RAIDLevel = iota + 1
	RAID4
	RAID5
)

// String names the level.
func (l RAIDLevel) String() string {
	switch l {
	case RAID0:
		return "RAID-0"
	case RAID4:
		return "RAID-4"
	case RAID5:
		return "RAID-5"
	default:
		return fmt.Sprintf("raid(%d)", int(l))
	}
}

// FlushPolicy controls when SRC issues flush commands to the SSDs
// (paper §4.1, "flush Command Control").
type FlushPolicy int

// Flush policies.
const (
	// FlushPerSegment flushes after every segment write. It is also the
	// Bcache-style per-metadata cadence the paper compares against (§4.1):
	// on SRC's layout every segment write carries its MS/ME summaries.
	FlushPerSegment FlushPolicy = iota + 1
	// FlushPerSegmentGroup flushes when the active SG fills (default).
	FlushPerSegmentGroup
	// FlushNever issues no flush commands at all, the Flashcache-style
	// baseline: crash durability is whatever the drives' volatile caches
	// happen to have retired. Explicit Cache.Flush calls still drain the
	// RAM buffers but do not reach the SSDs' caches.
	FlushNever
)

// String names the policy.
func (p FlushPolicy) String() string {
	switch p {
	case FlushPerSegment:
		return "per-segment"
	case FlushPerSegmentGroup:
		return "per-segment-group"
	case FlushNever:
		return "never"
	default:
		return fmt.Sprintf("flush(%d)", int(p))
	}
}

// Config assembles an SRC cache. The defaults are the paper's Table 7
// bold entries: 256 MB erase groups, Sel-GC with U_MAX 90%, FIFO victims,
// NPC, RAID-5, flush per Segment Group.
type Config struct {
	// SSDs is the cache array, one Device per drive (equal capacities).
	SSDs []blockdev.Device
	// Primary is the backing store the cache fronts.
	Primary blockdev.Device
	// CachePerSSD is the byte region used on each SSD (default: whole
	// device). It must be a multiple of EraseGroupSize and leave at
	// least 4 Segment Groups (one superblock + working room).
	CachePerSSD int64
	// EraseGroupSize is the per-SSD column size of one Segment Group
	// (default 256 MiB, matching the paper's measured erase group).
	EraseGroupSize int64
	// SegmentColumn is the per-SSD column size of one segment (default
	// 512 KiB, the largest transfer unit; a segment is M columns).
	SegmentColumn int64
	// GC selects the reclamation policy (default SelGC).
	GC GCPolicy
	// Victim selects the group to reclaim (default FIFO).
	Victim VictimPolicy
	// UMax is the utilization above which Sel-GC falls back to S2D
	// (default 0.90).
	UMax float64
	// Parity selects clean-data redundancy (default NPC).
	Parity ParityMode
	// Level selects cache striping (default RAID5).
	Level RAIDLevel
	// Flush selects the flush-command cadence (default per Segment Group).
	Flush FlushPolicy
	// SeparateGCBuffer gives Sel-GC's S2S dirty copies their own segment
	// buffer, segregating aged (GC-survivor) data from fresh host writes
	// — the hot/cold separation the paper lists as future work (§6).
	SeparateGCBuffer bool
	// TrackContent enables page-tag and metadata-blob bookkeeping on the
	// device content stores, which integrity, recovery and failure tests
	// rely on. Benchmarks leave it off.
	TrackContent bool
	// ErrorBudget is the md-style per-device corrected-error budget: each
	// transient or unreadable event counts against it, and a device that
	// exhausts it is escalated to column fail-stop (default 20; the same
	// order as md's max_corrected_read_errors).
	ErrorBudget int64
}

// Validate fills defaults and checks invariants.
func (c Config) Validate() (Config, error) {
	m := len(c.SSDs)
	if m < 1 || m > 256 {
		return c, fmt.Errorf("src: %d SSDs, want 1 to 256", m)
	}
	if c.Primary == nil {
		return c, fmt.Errorf("src: primary storage required")
	}
	if c.Level == 0 {
		c.Level = RAID5
	}
	if (c.Level == RAID4 || c.Level == RAID5) && m < 3 {
		return c, fmt.Errorf("src: %v needs at least 3 SSDs, have %d", c.Level, m)
	}
	devCap := c.SSDs[0].Capacity()
	for i, d := range c.SSDs {
		if d.Capacity() != devCap {
			return c, fmt.Errorf("src: ssd %d capacity %d != %d", i, d.Capacity(), devCap)
		}
	}
	if c.EraseGroupSize == 0 {
		c.EraseGroupSize = 256 << 20
	}
	if c.SegmentColumn == 0 {
		c.SegmentColumn = 512 << 10
	}
	if c.SegmentColumn%blockdev.PageSize != 0 || c.SegmentColumn < 3*blockdev.PageSize {
		return c, fmt.Errorf("src: segment column %d must be page-aligned and hold MS+ME+data", c.SegmentColumn)
	}
	if c.EraseGroupSize%c.SegmentColumn != 0 {
		return c, fmt.Errorf("src: erase group %d not a multiple of segment column %d", c.EraseGroupSize, c.SegmentColumn)
	}
	if c.CachePerSSD == 0 {
		c.CachePerSSD = devCap - devCap%c.EraseGroupSize
	}
	if c.CachePerSSD%c.EraseGroupSize != 0 {
		return c, fmt.Errorf("src: cache region %d not a multiple of erase group %d", c.CachePerSSD, c.EraseGroupSize)
	}
	if c.CachePerSSD > devCap {
		return c, fmt.Errorf("src: cache region %d exceeds ssd capacity %d", c.CachePerSSD, devCap)
	}
	if n := c.CachePerSSD / blockdev.PageSize; n > 1<<32 {
		return c, fmt.Errorf("src: cache region of %d pages per ssd exceeds 2^32", n)
	}
	if n := c.CachePerSSD / c.EraseGroupSize; n < 4 {
		return c, fmt.Errorf("src: %d segment groups too few (superblock + 3 working minimum)", n)
	}
	if c.GC == 0 {
		c.GC = SelGC
	}
	if c.Victim == 0 {
		c.Victim = FIFO
	}
	if c.UMax == 0 {
		c.UMax = 0.90
	}
	if c.UMax <= 0 || c.UMax > 1 {
		return c, fmt.Errorf("src: UMax %v out of (0,1]", c.UMax)
	}
	if c.Parity == 0 {
		c.Parity = NPC
	}
	if c.Level == RAID0 && c.Parity == PC {
		// No parity exists at RAID-0; PC degenerates to NPC.
		c.Parity = NPC
	}
	if c.Flush == 0 {
		c.Flush = FlushPerSegmentGroup
	}
	if c.ErrorBudget == 0 {
		c.ErrorBudget = 20
	}
	return c, nil
}
