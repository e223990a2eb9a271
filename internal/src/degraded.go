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
// is data loss, reported as cause, and a clean page leaves the cache, since
// primary storage holds it.
func (c *Cache) dropUnvouched(loc, n int64, cause error) error {
	slots := c.groups[c.lay.groupOf(loc)].slots
	for l := loc; l < loc+n; l++ {
		packed := slots[c.lay.localSlot(l)]
		if packed == slotFree {
			continue
		}
		lba, dirty := unpackSlot(packed)
		if dirty {
			return cause
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

// reconstructExpected requires the tag reconstructed at loc to be lba's
// expected tag want: a stripe that no longer reconstructs the page is data
// loss, not a repair.
func (c *Cache) reconstructExpected(loc, lba int64, want blockdev.Tag) error {
	tag, err := c.reconstructTag(loc)
	if err == nil && tag != want {
		err = fmt.Errorf("%w: page %d does not reconstruct from parity", ErrDataLoss, lba)
	}
	return err
}

// rebuildColumnContent restores the tags and summary blobs of one rebuilt
// column from the survivors. Reconstructed pages are verified against
// expectedTag before being trusted: resurrecting the XOR of a stale stripe
// would serve garbage under a valid summary. (Recovery repairs the parity
// of every recovered segment, so stripes skewed by a partial-persistence
// crash normally verify again by the time a rebuild runs.) A page that
// still fails verification falls back to primary storage when the mapping
// holds it clean; otherwise it is dropped — and a dirty drop, possible
// only under compound faults, is counted in RepairStats.RebuildDirtyLost
// as detected loss. When no other column holds the segment's summary
// (the failed column had the only surviving copy), survivingGeneration
// falls back to the in-memory per-segment generation so the fresh MS/ME
// preserves the newest on-media records instead of sentineling them away.
func (c *Cache) rebuildColumnContent(sg, seg int64, col int) error {
	cont := c.cfg.SSDs[col].Content()
	colBase := c.lay.colOffset(c.cfg, sg, seg)
	basePage := colBase / blockdev.PageSize
	g := &c.groups[sg]
	gen, genErr := c.survivingGeneration(sg, seg, col)
	var entries []summaryEntry
	for pic := int64(1); pic <= c.lay.payloadPages; pic++ {
		loc := c.lay.loc(sg, seg, col, pic)
		// Entries are positional (entry i ↔ payload page i+1), so a freed
		// slot must be held with a sentinel, not skipped: compacting the
		// list would shift every later page onto the wrong slot at the
		// next recovery.
		s := c.lay.localSlot(loc)
		if g.slots[s] == slotFree {
			// Free slots still need their tag restored: on a parity column
			// every slot is free, and the XOR identity over the survivors is
			// exactly the parity tag (for a free data position it yields
			// zero). Skipping them would leave a rebuilt parity column
			// all-zero and poison every later reconstruction through it.
			if genErr == nil {
				if tag, err := c.reconstructTag(loc); err == nil {
					if werr := cont.WriteTag(basePage+pic, tag); werr != nil {
						return werr
					}
				}
			}
			entries = append(entries, summaryEntry{lba: summaryFreeLBA})
			continue
		}
		lba, dirty := unpackSlot(g.slots[s])
		want, err := c.expectedTag(lba)
		if err != nil {
			return err
		}
		err = c.reconstructExpected(loc, lba, want)
		e, mapped := c.mapping.get(lba)
		mapped = mapped && e.loc == loc
		// A clean page that does not reconstruct has a second source:
		// primary storage holds the same version, so restore from there
		// instead of dropping. Writing a free-slot sentinel here would
		// destroy the newest on-media record of the LBA while stale older
		// records may survive in not-yet-reclaimed groups — the next
		// recovery would resurrect one of those (the destruction-ordering
		// rule gc enforces for reclaims applies to rebuilds too).
		if genErr != nil || (err != nil && !(mapped && e.state == stateSSDClean)) {
			if mapped {
				c.dropPage(lba, e)
			} else {
				c.invalidateSSD(loc)
			}
			if dirty {
				c.repair.RebuildDirtyLost++
			}
			entries = append(entries, summaryEntry{lba: summaryFreeLBA})
			continue
		}
		if err := cont.WriteTag(basePage+pic, want); err != nil {
			return err
		}
		entries = append(entries, summaryEntry{lba: lba, version: c.versions[lba], dirty: dirty})
	}
	// Rebuild the summary blobs from a surviving column's generation.
	if genErr != nil {
		// Nothing recorded: an abandoned, fully invalidated, or
		// unreconstructable segment writes no summary on the new member.
		return nil
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

// survivingGeneration reads the segment generation from any surviving
// column's MS block.
func (c *Cache) survivingGeneration(sg, seg int64, failedCol int) (int64, error) {
	basePage := c.lay.colOffset(c.cfg, sg, seg) / blockdev.PageSize
	for other := 0; other < c.lay.m; other++ {
		if other == failedCol {
			continue
		}
		blob, err := c.cfg.SSDs[other].Content().ReadBlob(basePage)
		if err != nil || blob == nil {
			continue
		}
		s, err := parseSummary(blob, primaryPages(c.cfg))
		if err != nil {
			continue
		}
		return s.gen, nil
	}
	// No other column holds a summary — the failed column had the only
	// surviving copy (the others' were lost to a partial-persistence
	// crash). The in-memory cache still vouches for the segment; fall back
	// to the generation it was sealed or recovered with, so the rebuilt
	// column's fresh MS/ME preserves the newest on-media record instead of
	// silently destroying it.
	if gen := c.groups[sg].segGens[seg]; gen > 0 {
		return gen, nil
	}
	return 0, fmt.Errorf("%w: no surviving summary for group %d segment %d", ErrBadSummary, sg, seg)
}
