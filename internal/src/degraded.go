package src

import (
	"errors"
	"fmt"

	"srccache/internal/blockdev"
	"srccache/internal/vtime"
)

// Failure handling (paper §4.1, §4.3): when an SSD fails, parity-protected
// segments are served by on-the-fly reconstruction from the surviving
// columns; parityless clean segments (NPC mode) lose their data and the
// cache falls back to primary storage, a temporary read-performance
// degradation rather than a correctness problem.

// hasParity reports whether the segment holding loc has a parity column.
func (c *Cache) hasParity(loc int64) bool {
	sg, seg, _, _ := c.lay.split(loc)
	return c.groups[sg].segParity[seg] >= 0
}

// dropUnvouched is the one rule for pages a checked read cannot vouch for,
// applied to the n locations from loc, with cause saying why: a dirty page
// is data loss, reported as cause with the page's LBA, and a clean page
// leaves the cache, since primary storage holds it.
func (c *Cache) dropUnvouched(loc, n int64, cause error) error {
	slots := c.groups[c.lay.groupOf(loc)].slots
	for l := loc; l < loc+n; l++ {
		packed := slots[c.lay.localSlot(l)]
		if packed == slotFree {
			continue
		}
		lba, dirty := unpackSlot(packed)
		if dirty {
			return fmt.Errorf("page %d: %w", lba, cause)
		}
		c.invalidateSSD(l)
		c.mapping.del(lba)
	}
	return nil
}

// reconstructColumns charges the reads that rebuild a lost column range
// from every surviving column (data plus parity), returning the last
// completion. A second fault on a survivor is unrecoverable for the range.
func (c *Cache) reconstructColumns(at vtime.Time, col int, off, n int64) (vtime.Time, error) {
	done := at
	for other := 0; other < c.lay.m; other++ {
		if other == col {
			continue
		}
		t, err := c.submitSSD(at, other, blockdev.Request{Op: blockdev.OpRead, Off: off, Len: n})
		if err != nil {
			if errors.Is(err, blockdev.ErrDeviceFailed) {
				return at, fmt.Errorf("%w: second ssd failure (%d and %d)", ErrDataLoss, col, other)
			}
			if errors.Is(err, blockdev.ErrUnreadable) {
				return at, fmt.Errorf("%w: survivor ssd %d unreadable while reconstructing ssd %d", ErrDataLoss, other, col)
			}
			return at, err
		}
		done = vtime.Max(done, t)
	}
	return done, nil
}

// reconstructTag recomputes the content tag of a lost page from the
// surviving columns' tags — the content-level counterpart of
// reconstructColumns. It is valid only after reconstructColumns has read
// those columns through submitSSD: the tags of a column that cannot be read
// prove nothing. Requires TrackContent.
func (c *Cache) reconstructTag(loc int64) (blockdev.Tag, error) {
	sg, seg, col, pic := c.lay.split(loc)
	if int(c.groups[sg].segParity[seg]) < 0 {
		return blockdev.ZeroTag, fmt.Errorf("%w: location %d has no parity", ErrDataLoss, loc)
	}
	var tag blockdev.Tag
	for other := 0; other < c.lay.m; other++ {
		if other == col {
			continue
		}
		otherLoc := c.lay.loc(sg, seg, other, pic)
		_, off := c.lay.devOffset(c.cfg, otherLoc)
		t, err := c.cfg.SSDs[other].Content().ReadTag(off / blockdev.PageSize)
		if err != nil {
			return blockdev.ZeroTag, err
		}
		tag = tag.XOR(t)
	}
	return tag, nil
}

// reconstructExpected requires the tag reconstructed at loc to be the
// page's expected tag want: a stripe that no longer reconstructs the page
// is data loss, not a repair.
func (c *Cache) reconstructExpected(loc int64, want blockdev.Tag) error {
	tag, err := c.reconstructTag(loc)
	if err == nil && tag != want {
		err = fmt.Errorf("%w: does not reconstruct from parity", ErrDataLoss)
	}
	return err
}

// rebuildColumnContent writes the tags and summary blobs of one rebuilt
// column from slots, its slot table before readSSD judged it (entry i ↔
// column page i). Each page the read kept verified and each it dropped was
// clean, so every recorded page gets its expected tag and keeps its entry:
// no older record of a dropped page in an unreclaimed group can win the
// next recovery (the destruction-ordering rule gc keeps). A free slot gets
// the survivors' XOR, which on a parity column is the parity tag. The
// blobs carry the segment's sealed or recovered generation; a segment with
// none (a position recovery found no summary for) writes nothing.
func (c *Cache) rebuildColumnContent(sg, seg int64, col int, slots []int64) error {
	g := &c.groups[sg]
	gen := g.segGens[seg]
	if gen == 0 {
		return nil
	}
	cont := c.cfg.SSDs[col].Content()
	basePage := c.lay.colOffset(c.cfg, sg, seg) / blockdev.PageSize
	var entries []summaryEntry
	for pic := int64(1); pic <= c.lay.payloadPages; pic++ {
		var tag blockdev.Tag
		var err error
		// Entries are positional, so a free slot is held with a sentinel,
		// not skipped: compacting the list would shift every later page
		// onto the wrong slot at the next recovery.
		e := summaryEntry{lba: summaryFreeLBA}
		if slots[pic] == slotFree {
			tag, err = c.reconstructTag(c.lay.loc(sg, seg, col, pic))
		} else {
			lba, dirty := unpackSlot(slots[pic])
			e = summaryEntry{lba: lba, version: c.versions[lba], dirty: dirty}
			tag, err = c.expectedTag(lba)
		}
		if err != nil {
			return err
		}
		if err := cont.WriteTag(basePage+pic, tag); err != nil {
			return err
		}
		entries = append(entries, e)
	}
	sum := &summary{
		kind: kindMS, gen: gen, sg: sg, seg: seg,
		col: uint8(col), parityCol: g.segParity[seg], entries: entries,
	}
	if err := cont.WriteBlob(basePage, sum.marshal()); err != nil {
		return err
	}
	sum.kind = kindME
	return cont.WriteBlob(basePage+c.lay.pagesPerCol-1, sum.marshal())
}
