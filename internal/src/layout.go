package src

import "srccache/internal/blockdev"

// Cache-space geometry (Figure 3):
//
//	cache region per SSD = numSG columns of EraseGroupSize
//	Segment Group (SG)   = one column per SSD, segsPerSG segments
//	segment              = one column of SegmentColumn bytes per SSD
//	column               = [MS][payload pages...][ME]
//
// A location addresses one page slot inside the cache region as
// ((sg*segsPerSG+seg)*M + col)*pagesPerCol + pageInCol.

// layout precomputes the geometry derived from a validated Config.
type layout struct {
	m            int   // SSDs in the array
	pagesPerCol  int64 // pages per segment column, including MS/ME
	payloadPages int64 // pagesPerCol - 2
	segsPerSG    int64
	numSG        int64 // including the superblock group 0
}

func newLayout(cfg Config) layout {
	ppc := cfg.SegmentColumn / blockdev.PageSize
	return layout{
		m:            len(cfg.SSDs),
		pagesPerCol:  ppc,
		payloadPages: ppc - 2,
		segsPerSG:    cfg.EraseGroupSize / cfg.SegmentColumn,
		numSG:        cfg.CachePerSSD / cfg.EraseGroupSize,
	}
}

// segPerCacheCol is the number of page slots in one segment across all
// columns.
func (l layout) slotsPerSeg() int64 { return int64(l.m) * l.pagesPerCol }

// slotsPerSG is the number of page slots (all kinds) in one Segment Group.
func (l layout) slotsPerSG() int64 { return l.segsPerSG * l.slotsPerSeg() }

// loc builds a location from coordinates.
func (l layout) loc(sg, seg int64, col int, pageInCol int64) int64 {
	return ((sg*l.segsPerSG+seg)*int64(l.m)+int64(col))*l.pagesPerCol + pageInCol
}

// split decomposes a location.
func (l layout) split(loc int64) (sg, seg int64, col int, pageInCol int64) {
	pageInCol = loc % l.pagesPerCol
	rest := loc / l.pagesPerCol
	col = int(rest % int64(l.m))
	rest /= int64(l.m)
	seg = rest % l.segsPerSG
	sg = rest / l.segsPerSG
	return sg, seg, col, pageInCol
}

// devOffset maps a location to its byte offset on its SSD.
func (l layout) devOffset(cfg Config, loc int64) (col int, off int64) {
	sg, seg, col, pageInCol := l.split(loc)
	off = sg*cfg.EraseGroupSize + seg*cfg.SegmentColumn + pageInCol*blockdev.PageSize
	return col, off
}

// colOffset is the byte offset of a segment's column on every SSD.
func (l layout) colOffset(cfg Config, sg, seg int64) int64 {
	return sg*cfg.EraseGroupSize + seg*cfg.SegmentColumn
}

// localSlot maps a location to its index within its group's slot table.
func (l layout) localSlot(loc int64) int64 { return loc % l.slotsPerSG() }

// groupOf reports which Segment Group a location belongs to.
func (l layout) groupOf(loc int64) int64 { return loc / l.slotsPerSG() }

// parityCol reports which column holds parity for the absolute segment
// number (sg*segsPerSG+seg): fixed last column under RAID-4, rotating under
// RAID-5, none (-1) under RAID-0.
func parityCol(level RAIDLevel, m int, absSeg int64) int {
	switch level {
	case RAID4:
		return m - 1
	case RAID5:
		return m - 1 - int(absSeg%int64(m))
	default:
		return -1
	}
}

// groupState tracks a Segment Group's lifecycle.
type groupState uint8

const (
	groupFree groupState = iota + 1
	groupActive
	groupClosed
	groupSuperblock
)

// slotEntry packs (lba, dirty) for one occupied page slot; slotFree marks
// empty/metadata/parity slots.
const slotFree int64 = -1

func packSlot(lba int64, dirty bool) int64 {
	v := lba << 1
	if dirty {
		v |= 1
	}
	return v
}

func unpackSlot(v int64) (lba int64, dirty bool) { return v >> 1, v&1 == 1 }

// group is the in-memory state of one Segment Group.
type group struct {
	state  groupState
	valid  int64 // occupied payload slots
	paycap int64 // payload capacity of segments written so far
	seq    int64 // fill order, for FIFO victim selection
	// slots holds packSlot values per local slot, slotFree when empty.
	// Allocated lazily and reused across free/fill cycles.
	slots []int64
	// segParity records, per segment, which column held parity (-1 for
	// parityless segments); needed for reconstruction and recovery.
	segParity []int8
	// segGens records, per segment, the generation it was sealed or
	// recovered with (0 when empty). A rebuild consults it when the column
	// being rebuilt held the only surviving summary of a segment: the
	// in-memory cache still vouches for the segment, and the rebuilt
	// column's fresh MS/ME must carry the original generation so newest-
	// wins ordering holds at the next recovery.
	segGens []int64
}

// ensureTables empties g's tables, allocating them on first use.
func (g *group) ensureTables(l layout) {
	if g.slots == nil {
		g.slots = make([]int64, l.slotsPerSG())
		g.segParity = make([]int8, l.segsPerSG)
		g.segGens = make([]int64, l.segsPerSG)
	}
	for i := range g.slots {
		g.slots[i] = slotFree
	}
	for i := range g.segParity {
		g.segParity[i] = -1
		g.segGens[i] = 0
	}
}

// pageState classifies where a cached page currently lives.
type pageState uint8

const (
	stateSSDClean pageState = iota + 1
	stateSSDDirty
	stateBufClean
	stateBufDirty
	// stateBufGC marks dirty pages waiting in the separate GC segment
	// buffer (SeparateGCBuffer mode).
	stateBufGC
)

func (s pageState) dirty() bool {
	return s == stateSSDDirty || s == stateBufDirty || s == stateBufGC
}

func (s pageState) onSSD() bool {
	return s == stateSSDClean || s == stateSSDDirty
}

// entry is the mapping-table value for one cached logical page: a
// segment-buffer slot index, or an SSD location and the address it
// stands for. The seal (and Recover) that places a page on the SSDs
// stores the column and device page beside the location, so a read goes
// to the device without deriving them again. loc stays the authority:
// slot accounting, reclaim, repair and recovery all work on locations,
// and col and page are what layout.devOffset says of loc at the moment
// the page is placed (checkInvariants holds them to it). Config.Validate
// keeps both narrow fields in range, and the entry at 16 bytes.
type entry struct {
	state pageState
	col   uint8  // SSD column of an on-SSD copy
	page  uint32 // device page of an on-SSD copy on col
	loc   int64
}

// ssdEntry is the entry of a page placed at loc, which is device page
// page on SSD col.
func ssdEntry(dirty bool, loc int64, col int, page int64) entry {
	return entry{state: ssdState(dirty), col: uint8(col), page: uint32(page), loc: loc}
}
