package src

import (
	"errors"
	"fmt"

	"srccache/internal/blockdev"
	"srccache/internal/vtime"
)

// Array scaling (paper §6, future work: "a stable means to expand or
// contract the number of SSDs in RAID-5"). Resize re-stripes the cache onto
// a new drive set: every live page is gathered (charging the SSD reads),
// the geometry is rebuilt for the new array width, and the pages are
// re-appended through the normal segment-write path — so parity, metadata
// blocks and content tags all come out consistent for the new layout.
// Caching service state (dirtiness, versions, hotness) is preserved;
// cold clean pages are kept too, since scaling should not empty the cache.

// Resize re-stripes the cache onto ssds (which may be more, fewer, or
// partially the same drives; each must match the configured per-drive cache
// region). It returns the virtual time the migration completes. The old
// layout's metadata is trimmed away mid-migration, so no success path may
// return before the final Flush makes the new layout durable.
//
//srclint:contract flush
func (c *Cache) Resize(at vtime.Time, ssds []blockdev.Device) (vtime.Time, error) {
	if len(ssds) < 1 {
		return at, fmt.Errorf("src: resize needs at least one SSD")
	}
	if (c.cfg.Level == RAID4 || c.cfg.Level == RAID5) && len(ssds) < 3 {
		return at, fmt.Errorf("src: %v needs at least 3 SSDs, resize to %d", c.cfg.Level, len(ssds))
	}
	for i, d := range ssds {
		if d.Capacity() < c.cfg.CachePerSSD {
			return at, fmt.Errorf("src: resize ssd %d capacity %d below cache region %d",
				i, d.Capacity(), c.cfg.CachePerSSD)
		}
	}

	// Gather every live page: buffered ones from the segment buffers,
	// on-SSD ones group by group (charging reads).
	var live []liveEntry
	gatherBuf := func(buf *segBuffer, dirty bool) {
		if buf == nil {
			return
		}
		for i := 0; i < buf.Len(); i++ {
			s := buf.Slot(i)
			if s.valid {
				live = append(live, liveEntry{lba: s.lba, dirty: dirty, tag: s.tag})
				c.mapping.del(s.lba)
			}
		}
		buf.Reset()
	}
	gatherBuf(c.dirtyBuf, true)
	gatherBuf(c.gcBuf, true)
	gatherBuf(c.cleanBuf, false)

	readDone := at
	for sg := int64(1); sg < c.lay.numSG; sg++ {
		st := c.groups[sg].state
		if st != groupClosed && st != groupActive {
			continue
		}
		entries, t, err := c.evacuate(at, sg, true, true)
		if err != nil {
			return at, err
		}
		readDone = vtime.Max(readDone, t)
		live = append(live, entries...)
	}

	// Capacity sanity: the dirty set must fit the new array (clean pages
	// can always be dropped under pressure by GC, dirty cannot without
	// destage — which the reinsertion below may still do via S2D).
	newCfg := c.cfg
	newCfg.SSDs = ssds
	newCfg, err := newCfg.Validate()
	if err != nil {
		return at, err
	}

	// Rebuild the geometry for the new width. Trim the whole cache region
	// on every member first: reused drives must not keep stale segment
	// metadata from the old layout (recovery would resurrect it).
	for _, d := range ssds {
		if _, err := d.Submit(readDone, blockdev.Request{
			Op: blockdev.OpTrim, Off: 0, Len: newCfg.CachePerSSD,
		}); err != nil {
			return at, err
		}
	}
	c.cfg = newCfg
	c.lay = newLayout(newCfg)
	// Per-device failure-handling state restarts with the new member set.
	c.devErrs = make([]int64, c.lay.m)
	c.colDown = make([]bool, c.lay.m)
	c.rebuild = nil
	c.scrub = scrubCursor{sg: 1}
	c.groups = make([]group, c.lay.numSG)
	c.groups[0].state = groupSuperblock
	c.freeSGs = nil
	c.fifo = nil
	c.active = -1
	c.nextSeg = 0
	c.totalValid = 0
	c.totalPaycap = 0
	c.dirtyBuf = newSegBuffer(c.bufCapacity(true))
	c.cleanBuf = newSegBuffer(c.bufCapacity(false))
	if c.cfg.SeparateGCBuffer {
		c.gcBuf = newSegBuffer(c.bufCapacity(true))
	} else {
		c.gcBuf = nil
	}
	if err := c.writeSuperblock(); err != nil {
		return at, err
	}
	for sg := int64(1); sg < c.lay.numSG; sg++ {
		c.groups[sg].state = groupFree
		c.freeSGs = append(c.freeSGs, sg)
	}

	// Re-append everything through the normal write path: dirty pages into
	// the dirty buffer, clean pages into the clean buffer. GC engages
	// automatically if the new array is smaller than the live set.
	for _, e := range live {
		if _, ok := c.mapping.get(e.lba); ok {
			continue
		}
		if e.dirty {
			slot := c.dirtyBuf.Append(e.lba, e.tag)
			c.mapping.set(e.lba, entry{state: stateBufDirty, loc: int64(slot)})
			if c.dirtyBuf.Full() {
				if _, err := c.writeSegment(readDone, c.dirtyBuf, true); err != nil &&
					!errors.Is(err, errSegmentAbandoned) {
					return at, err
				}
			}
			continue
		}
		slot := c.cleanBuf.Append(e.lba, e.tag)
		c.mapping.set(e.lba, entry{state: stateBufClean, loc: int64(slot)})
		if c.cleanBuf.Full() {
			if _, err := c.writeSegment(readDone, c.cleanBuf, false); err != nil &&
				!errors.Is(err, errSegmentAbandoned) {
				return at, err
			}
		}
	}
	// Write out the partial tails and make the new layout durable.
	if !c.cleanBuf.Empty() {
		if _, err := c.writeSegment(readDone, c.cleanBuf, false); err != nil &&
			!errors.Is(err, errSegmentAbandoned) {
			return at, err
		}
	}
	return c.Flush(readDone)
}
