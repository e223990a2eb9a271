package src

import (
	"errors"
	"fmt"
	"sort"

	"srccache/internal/blockdev"
	"srccache/internal/vtime"
)

// Crash recovery (paper §4.1, "Failure Handling"): after a power failure,
// SRC scans the on-SSD metadata blocks. A segment column whose MS and ME
// generation numbers match is consistent; mismatched or missing summaries
// mean a torn segment, which is discarded. Consistent summaries are applied
// in generation order to rebuild the in-memory mapping table. Requires
// TrackContent (the summaries live in the device content stores).

// recoveredSeg groups the consistent column summaries of one segment.
type recoveredSeg struct {
	gen     int64
	sg, seg int64
	parity  int8
	cols    []*summary
}

// Recover rebuilds the cache's in-memory state from the SSDs' durable
// metadata, as after a host crash or power failure. Unflushed segments
// (whose summaries were lost with the devices' volatile caches) are
// discarded — the data-loss window the flush policy bounds.
//
// It returns the number of segments recovered.
func (c *Cache) Recover() (int, error) {
	if !c.cfg.TrackContent {
		return 0, errors.New("src: recovery requires TrackContent")
	}
	if err := c.checkSuperblock(); err != nil {
		return 0, err
	}

	// Reset in-memory state.
	c.mapping = newPageTable(primaryPages(c.cfg))
	c.versions = make([]uint64, primaryPages(c.cfg))
	c.dirtyBuf.Reset()
	c.cleanBuf.Reset()
	if c.gcBuf != nil {
		c.gcBuf.Reset()
	}
	c.active = -1
	c.nextSeg = 0
	c.fifo = nil
	c.freeSGs = nil
	c.totalValid = 0
	c.totalPaycap = 0
	// Runtime failure-handling state does not survive a restart: error
	// budgets restart fresh, and an interrupted rebuild must be restarted
	// by the operator (the replacement device's rebuilt segments were
	// recovered from its own durable summaries).
	for i := range c.devErrs {
		c.devErrs[i] = 0
		c.colDown[i] = false
	}
	c.rebuild = nil
	c.scrub = scrubCursor{sg: 1}
	for sg := int64(1); sg < c.lay.numSG; sg++ {
		g := &c.groups[sg]
		g.state = groupFree
		g.valid = 0
		g.paycap = 0
		if g.slots != nil {
			g.ensureTables(c.lay)
		}
	}

	segs, err := c.scanSummaries()
	if err != nil {
		return 0, err
	}
	// Apply in generation order so the newest copy of each LBA wins.
	sort.Slice(segs, func(i, j int) bool { return segs[i].gen < segs[j].gen })
	maxGen := int64(0)
	for _, rs := range segs {
		c.applySegment(rs)
		if rs.gen > maxGen {
			maxGen = rs.gen
		}
	}
	c.segGen = maxGen
	c.seqCtr = 0

	// Groups with recovered segments are closed (ordered by their oldest
	// generation for FIFO); the rest are free.
	firstGen := make(map[int64]int64)
	for _, rs := range segs {
		if g, ok := firstGen[rs.sg]; !ok || rs.gen < g {
			firstGen[rs.sg] = rs.gen
		}
	}
	var used []int64
	for sg := range firstGen {
		used = append(used, sg)
	}
	sort.Slice(used, func(i, j int) bool { return firstGen[used[i]] < firstGen[used[j]] })
	for _, sg := range used {
		c.groups[sg].state = groupClosed
		c.seqCtr++
		c.groups[sg].seq = c.seqCtr
		c.fifo = append(c.fifo, sg)
	}
	for sg := int64(1); sg < c.lay.numSG; sg++ {
		if c.groups[sg].state == groupFree {
			c.freeSGs = append(c.freeSGs, sg)
		}
	}
	// A skewed crash can leave a free group's columns holding tags of a seal
	// no summary vouches for, which would break the stripes of a later
	// partial seal there. Trim every free group on each member and commit
	// the trims at once (a crashed member holds nothing else volatile),
	// ahead of the parity repair's volatile writes below. A free group holds
	// no summary recovery accepted, so nothing recoverable is destroyed;
	// like the rest of recovery, the trims charge no virtual time.
	groupPages := c.cfg.EraseGroupSize / blockdev.PageSize
	for _, dev := range c.cfg.SSDs {
		cont := dev.Content()
		for _, sg := range c.freeSGs {
			if err := cont.Trim(sg*groupPages, groupPages); err != nil {
				return 0, err
			}
		}
		cont.FlushContent()
	}

	// A crash can cut independent drive caches at different points, leaving
	// a recovered segment whose columns persisted unevenly: each applied
	// column's own pages are intact (its MS/ME sandwich vouches for them),
	// but the parity page — written by a different device — may be stale,
	// so a later device failure could not reconstruct the recovered pages,
	// and a rebuild would refuse to resurrect them. Recompute every
	// recovered segment's parity from the live mapping (expected tags for
	// mapped slots, whatever the media holds for stale ones) and rewrite
	// where it differs. The writes stay volatile: a repeat crash reverts
	// them and the next recovery derives the same repair from the same
	// committed state.
	if err := c.repairRecoveredParity(segs); err != nil {
		return 0, err
	}
	return len(segs), nil
}

// repairRecoveredParity restores the parity stripes of recovered segments.
// Mapped slots contribute their expected tag — repairing silently corrupted
// pages into a reconstructable stripe rather than baking the corruption in —
// and free slots contribute the media tag as-is, so stale remnants of torn
// columns stay XOR-consistent without being trusted.
func (c *Cache) repairRecoveredParity(segs []recoveredSeg) error {
	for _, rs := range segs {
		pcol := int(c.groups[rs.sg].segParity[rs.seg])
		if pcol < 0 {
			continue
		}
		for pic := int64(1); pic <= c.lay.payloadPages; pic++ {
			var want blockdev.Tag
			for col := 0; col < c.lay.m; col++ {
				if col == pcol {
					continue
				}
				loc := c.lay.loc(rs.sg, rs.seg, col, pic)
				_, off := c.lay.devOffset(c.cfg, loc)
				var t blockdev.Tag
				var err error
				if slot := c.groups[rs.sg].slots[c.lay.localSlot(loc)]; slot != slotFree {
					lba, _ := unpackSlot(slot)
					t, err = c.expectedTag(lba)
				} else {
					t, err = c.cfg.SSDs[col].Content().ReadTag(off / blockdev.PageSize)
				}
				if err != nil {
					return err
				}
				want = want.XOR(t)
			}
			ploc := c.lay.loc(rs.sg, rs.seg, pcol, pic)
			_, poff := c.lay.devOffset(c.cfg, ploc)
			pcont := c.cfg.SSDs[pcol].Content()
			got, err := pcont.ReadTag(poff / blockdev.PageSize)
			if err != nil {
				return err
			}
			if got != want {
				if err := pcont.WriteTag(poff/blockdev.PageSize, want); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// checkSuperblock validates the instance superblock against the
// configuration.
func (c *Cache) checkSuperblock() error {
	blob, err := c.cfg.SSDs[0].Content().ReadBlob(0)
	if err != nil {
		return err
	}
	if blob == nil {
		return fmt.Errorf("%w: missing", ErrBadSuperblock)
	}
	sb, err := parseSuperblock(blob)
	if err != nil {
		return err
	}
	if int(sb.ssds) != c.lay.m || sb.eraseGroupSize != c.cfg.EraseGroupSize ||
		sb.segmentColumn != c.cfg.SegmentColumn || sb.numSG != c.lay.numSG {
		return fmt.Errorf("%w: geometry mismatch", ErrBadSuperblock)
	}
	return nil
}

// scanSummaries walks every potential segment position and collects the
// column summaries whose MS/ME generations match.
func (c *Cache) scanSummaries() ([]recoveredSeg, error) {
	pages := primaryPages(c.cfg)
	var out []recoveredSeg
	for sg := int64(1); sg < c.lay.numSG; sg++ {
		for seg := int64(0); seg < c.lay.segsPerSG; seg++ {
			basePage := c.lay.colOffset(c.cfg, sg, seg) / blockdev.PageSize
			var rs *recoveredSeg
			for col := 0; col < c.lay.m; col++ {
				cont := c.cfg.SSDs[col].Content()
				msBlob, err := cont.ReadBlob(basePage)
				if err != nil || msBlob == nil {
					continue
				}
				ms, err := parseSummary(msBlob, pages)
				if err != nil {
					continue // torn or corrupt MS: skip the column
				}
				meBlob, err := cont.ReadBlob(basePage + c.lay.pagesPerCol - 1)
				if err != nil || meBlob == nil {
					continue
				}
				me, err := parseSummary(meBlob, pages)
				if err != nil {
					continue
				}
				if me.gen != ms.gen {
					continue // generation mismatch: torn segment column
				}
				if ms.sg != sg || ms.seg != seg || int(ms.col) != col {
					continue // stale summary from an address mix-up
				}
				// Columns can disagree on the generation when the segment's
				// coordinates were trimmed and resealed and the crash kept the
				// trim on some devices but not others: the cut-early device
				// still holds the previous seal's summary. The newest seal
				// wins — gc submits a trim only after the replacement copies
				// of everything the trim destroys are drained and flushed, so
				// the stale remnant's records are superseded by durable copies
				// elsewhere and dropping it loses nothing, while keeping it
				// would discard the newest seal's only record.
				if rs == nil || ms.gen > rs.gen {
					rs = &recoveredSeg{gen: ms.gen, sg: sg, seg: seg, parity: ms.parityCol}
				}
				if ms.gen == rs.gen {
					rs.cols = append(rs.cols, ms)
				}
			}
			if rs != nil && len(rs.cols) > 0 {
				out = append(out, *rs)
			}
		}
	}
	return out, nil
}

// applySegment replays one recovered segment into the mapping.
func (c *Cache) applySegment(rs recoveredSeg) {
	g := &c.groups[rs.sg]
	if g.slots == nil {
		g.ensureTables(c.lay)
	}
	g.segParity[rs.seg] = rs.parity
	g.segGens[rs.seg] = rs.gen
	// Capacity: payload columns of this segment kind.
	nPayload := c.lay.m
	if rs.parity >= 0 {
		nPayload--
	}
	capacity := int64(nPayload) * c.lay.payloadPages
	g.paycap += capacity
	c.totalPaycap += capacity

	basePage := c.lay.colOffset(c.cfg, rs.sg, rs.seg) / blockdev.PageSize
	for _, sum := range rs.cols {
		for i, e := range sum.entries {
			if e.lba == summaryFreeLBA {
				continue // rebuilt summary holding an invalidated slot's place
			}
			loc := c.lay.loc(rs.sg, rs.seg, int(sum.col), int64(i)+1)
			if old, ok := c.mapping.get(e.lba); ok {
				// A newer generation supersedes; generations are applied
				// ascending, so the existing entry is older.
				c.invalidateSSD(old.loc)
			}
			c.mapping.set(e.lba, ssdEntry(e.dirty, loc, int(sum.col), basePage+int64(i)+1))
			g.slots[c.lay.localSlot(loc)] = packSlot(e.lba, e.dirty)
			g.valid++
			c.totalValid++
			if e.version > c.versions[e.lba] {
				c.versions[e.lba] = e.version
			}
		}
	}
}

// ReadCheck verifies one cached page through the cache's checked read,
// readSSD, and returns the tag it verified: the page's expectedTag. A
// mismatch is repaired there (paper §4.1: "SRC compares the original and
// calculated checksums when reading data"), and a clean page the read
// cannot vouch for is refetched from primary, as a host read would. A copy
// in a RAM buffer is not read. Requires TrackContent.
func (c *Cache) ReadCheck(at vtime.Time, lba int64) (blockdev.Tag, vtime.Time, error) {
	if !c.cfg.TrackContent {
		return blockdev.ZeroTag, at, errors.New("src: ReadCheck requires TrackContent")
	}
	e, ok := c.mapping.get(lba)
	if !ok {
		return blockdev.ZeroTag, at, fmt.Errorf("src: page %d not cached", lba)
	}
	want, err := c.expectedTag(lba)
	if err != nil || !e.state.onSSD() {
		return want, at, err // RAM copies cannot silently corrupt here
	}
	done, err := c.readRun(at, e, lba, 1)
	if err != nil {
		return blockdev.ZeroTag, at, err
	}
	return want, done, nil
}
