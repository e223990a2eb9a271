package src

import (
	"errors"
	"fmt"
	"slices"

	"srccache/internal/blockdev"
	"srccache/internal/vtime"
)

// allocSegment returns the coordinates of the next unused segment in the
// active Segment Group, rotating groups (and garbage collecting) as needed.
func (c *Cache) allocSegment(at vtime.Time) (sg, seg int64, err error) {
	for c.active < 0 || c.nextSeg == c.lay.segsPerSG {
		if c.active >= 0 {
			c.groups[c.active].state = groupClosed
			c.fifo = append(c.fifo, c.active)
			c.active = -1
		}
		if !c.inGC && len(c.freeSGs) <= 1 {
			// gc returns with two groups free, so it runs once per call.
			if err := c.gc(at); err != nil {
				return 0, 0, err
			}
			if c.active >= 0 {
				continue // S2S copies opened a group; use it if not full
			}
		}
		if len(c.freeSGs) == 0 {
			return 0, 0, ErrNoFreeGroups // only faults get here; see gc
		}
		next := c.freeSGs[0]
		// Shift rather than reslice, so the queue does not creep through
		// its array and reallocate every few reclaims.
		c.freeSGs = slices.Delete(c.freeSGs, 0, 1)
		g := &c.groups[next]
		g.ensureTables(c.lay)
		g.state = groupActive
		g.valid = 0
		c.seqCtr++
		g.seq = c.seqCtr
		c.active = next
		c.nextSeg = 0
	}
	seg = c.nextSeg
	c.nextSeg++
	return c.active, seg, nil
}

// writeSegment writes the buffer out as one (possibly partial) segment:
// data columns, MS/ME metadata blocks, and a parity column when the
// segment kind calls for one (Figure 3(b)). It returns the completion time
// of the segment write including any flush the policy requires.
func (c *Cache) writeSegment(at vtime.Time, buf *segBuffer, dirty bool) (vtime.Time, error) {
	if buf.Empty() {
		c.wastedSlots += int64(buf.Len())
		buf.Reset()
		return at, nil
	}
	// Allocate before snapshotting the buffer: allocation may trigger GC,
	// whose trim barrier must see this buffer's pages. A host overwrite of
	// an SSD-resident dirty page has already invalidated the superseded
	// copy's slot, so GC treats the group holding it as reclaimable — if
	// these pages were snapshotted out of the buffer first, the pre-trim
	// drain could not seal and flush them, and a committed trim would
	// destroy the only durable record of an acknowledged page while its
	// replacement was still volatile (found by the chaos harness's
	// partial-persistence schedules). GC's own S2S copies appending to
	// this buffer mid-allocation are equally welcome in this segment.
	sg, seg, err := c.allocSegment(at)
	if err != nil {
		return at, err
	}
	if buf.Empty() {
		// GC ran during allocation and its drain sealed this buffer
		// already; hand the unused segment back.
		c.nextSeg--
		return at, nil
	}
	// The taken slots become the next seal's spare at once: nothing below
	// seals another segment before this call returns.
	slots := buf.Take(c.scratch.slots)
	c.scratch.slots = slots
	absSeg := sg*c.lay.segsPerSG + seg
	cols, parity := c.payloadCols(absSeg, dirty)
	g := &c.groups[sg]
	g.segParity[seg] = int8(parity)
	c.segGen++
	gen := c.segGen
	g.segGens[seg] = gen

	// Column-major slot assignment keeps logically consecutive pages
	// physically consecutive within a column, so large reads coalesce.
	// The buffer can transiently hold more than one segment's payload
	// (segBuffer's capacity contract: a GC copy or an append after an
	// abandoned write); slots beyond this segment's capacity go back to
	// the buffer as overflow.
	perCol := rows(c.scratch.perCol, c.lay.m)
	colTags := rows(c.scratch.colTags, c.lay.m)
	segCap := int64(len(cols)) * c.lay.payloadPages
	colBase := c.lay.colOffset(c.cfg, sg, seg)
	basePage := colBase / blockdev.PageSize
	var overflow []bufSlot
	idx := int64(0)
	for i, slot := range slots {
		if !slot.valid {
			continue
		}
		if idx == segCap {
			overflow = slots[i:] // rebuffer skips the invalid ones
			break
		}
		col := cols[idx/c.lay.payloadPages]
		pic := 1 + idx%c.lay.payloadPages
		idx++
		loc := c.lay.loc(sg, seg, col, pic)
		g.slots[c.lay.localSlot(loc)] = packSlot(slot.lba, dirty)
		g.valid++
		c.totalValid++
		c.mapping.set(slot.lba, ssdEntry(dirty, loc, col, basePage+pic))
		var version uint64
		if c.cfg.TrackContent {
			version = c.versions[slot.lba]
		}
		perCol[col] = append(perCol[col], summaryEntry{lba: slot.lba, version: version, dirty: dirty})
		if c.cfg.TrackContent {
			colTags[col] = append(colTags[col], slot.tag)
		}
	}
	c.scratch.perCol, c.scratch.colTags = perCol, colTags
	c.rebuffer(buf, overflow, dirty)
	c.wastedSlots += segCap - idx
	g.paycap += segCap
	c.totalPaycap += segCap

	// Device writes: per participating column, [MS..last payload page] and
	// the ME block (one contiguous write when the column is full).
	done := at
	var failedCols []int
	maxUsed := int64(0)
	for _, col := range cols {
		if n := int64(len(perCol[col])); n > maxUsed {
			maxUsed = n
		}
	}
	writeCols := cols
	if parity >= 0 {
		writeCols = append(append(c.scratch.writeCols[:0], cols...), parity)
		c.scratch.writeCols = writeCols
	}
	for _, col := range writeCols {
		used := int64(len(perCol[col]))
		if col == parity {
			used = maxUsed
			c.counters.ParityBytes += used * blockdev.PageSize
		}
		t, werr := c.writeColumn(at, col, colBase, used)
		if werr != nil {
			if !errors.Is(werr, blockdev.ErrDeviceFailed) {
				return at, werr
			}
			if c.colDown[col] {
				// Degraded write, md-style: the fail-stopped column's
				// slots stay parity-covered and are restored when the
				// member is rebuilt.
				failedCols = append(failedCols, col)
				continue
			}
			// A live column rejected the write: transient errors past the
			// retry limit, which submitSSD charged to the device's error
			// budget. (A device that failed hard was fail-stopped by
			// submitSSD and took the branch above.) The column will be
			// read raw again, so its stale pages must not carry live
			// data, and its summary blob — the only durable record of
			// its entries — was never written. Abandon the whole segment
			// and return its pages to the buffer; the next destage
			// retries on a fresh segment, at most ErrorBudget times
			// before the column escalates and writes go degraded.
			return c.abandonSegment(at, sg, seg, buf, slots, dirty, werr)
		}
		c.counters.MetadataBytes += 2 * blockdev.PageSize
		done = vtime.Max(done, t)
	}
	if err := c.handleFailedColumns(failedCols, perCol, parity, dirty, sg, seg); err != nil {
		return done, err
	}
	if c.gcBuf != nil && buf == c.gcBuf {
		c.counters.GCSegments++
	}

	if c.cfg.TrackContent {
		if err := c.recordSegmentContent(sg, seg, gen, parity, perCol, colTags, maxUsed, failedCols); err != nil {
			return done, err
		}
	}

	// Flush-command control (paper §4.1): per segment write (which on this
	// layout is also the per-metadata cadence — every segment write carries
	// its MS/ME summaries), or when the active group just filled.
	// Suppressed while GC or a rebuild runs: a flush there would commit the
	// destruction of old durable records — reclaimed groups being reused,
	// rebuilt summaries holding sentinels for slots invalidated since the
	// last flush — before the replacement copies leave RAM. GC drains the
	// dirty buffers and flushes before each trim, and the rebuild
	// completion barrier drains before flushing, so those destructions
	// always commit together with their replacements. FlushNever is
	// handled inside flushSSDs.
	if !c.inGC && c.rebuild == nil && (c.cfg.Flush == FlushPerSegment || seg == c.lay.segsPerSG-1) {
		t, ferr := c.flushSSDs(done)
		if ferr != nil {
			return done, ferr
		}
		done = vtime.Max(done, t)
	}
	return done, nil
}

func ssdState(dirty bool) pageState {
	if dirty {
		return stateSSDDirty
	}
	return stateSSDClean
}

// errSegmentAbandoned reports a segment write abandoned because a live
// column's device kept answering with transient errors; the segment's
// pages were re-buffered and a later destage retries them on a fresh
// segment. The host write and fill paths swallow it (the data is safely
// buffered); Flush bounds its retries and surfaces the failure rather than
// acknowledge durability it cannot provide.
var errSegmentAbandoned = errors.New("src: segment write abandoned")

// rebuffer returns slots to their source buffer: pages that did not land
// in a segment, either because the buffer held more than one segment's
// capacity or because the segment write was abandoned.
func (c *Cache) rebuffer(buf *segBuffer, slots []bufSlot, dirty bool) {
	st := stateBufClean
	if dirty {
		if buf == c.gcBuf {
			st = stateBufGC
		} else {
			st = stateBufDirty
		}
	}
	for _, slot := range slots {
		if !slot.valid {
			continue
		}
		i := buf.Append(slot.lba, slot.tag)
		c.mapping.set(slot.lba, entry{state: st, loc: int64(i)})
	}
}

// abandonSegment unwinds writeSegment after a column write failed on a
// live (not fail-stopped) member: every slot just assigned to the segment
// is freed and its page returned to the source buffer, so no mapping
// points into a segment whose content and summary never fully reached the
// devices. The segment itself stays allocated and empty; GC reclaims it
// with its group.
func (c *Cache) abandonSegment(at vtime.Time, sg, seg int64, buf *segBuffer, slots []bufSlot, dirty bool, cause error) (vtime.Time, error) {
	var back []bufSlot
	for _, slot := range slots {
		if !slot.valid {
			continue
		}
		e, ok := c.mapping.get(slot.lba)
		if !ok || !e.state.onSSD() {
			continue // capacity overflow: already re-buffered above
		}
		c.invalidateSSD(e.loc)
		c.mapping.del(slot.lba)
		back = append(back, slot)
	}
	c.rebuffer(buf, back, dirty)
	return at, fmt.Errorf("%w: group %d segment %d: %v", errSegmentAbandoned, sg, seg, cause)
}

// writeColumn issues the device writes for one column: MS plus `used`
// payload pages as one run, and the ME block.
func (c *Cache) writeColumn(at vtime.Time, col int, colBase, used int64) (vtime.Time, error) {
	if used >= c.lay.payloadPages {
		// Full column: MS + payload + ME are contiguous.
		return c.submitSSD(at, col, blockdev.Request{Op: blockdev.OpWrite, Off: colBase, Len: c.cfg.SegmentColumn})
	}
	t1, err := c.submitSSD(at, col, blockdev.Request{
		Op: blockdev.OpWrite, Off: colBase, Len: (1 + used) * blockdev.PageSize,
	})
	if err != nil {
		return at, err
	}
	t2, err := c.submitSSD(at, col, blockdev.Request{
		Op: blockdev.OpWrite, Off: colBase + (c.lay.pagesPerCol-1)*blockdev.PageSize, Len: blockdev.PageSize,
	})
	if err != nil {
		return at, err
	}
	return vtime.Max(t1, t2), nil
}

// handleFailedColumns resolves payload slots that landed on failed devices:
// parity-covered slots stay reconstructable; parityless clean slots are
// quietly dropped (refetchable); parityless dirty slots are data loss.
func (c *Cache) handleFailedColumns(failedCols []int, perCol [][]summaryEntry, parity int, dirty bool, sg, seg int64) error {
	parityLost := false
	for _, col := range failedCols {
		if col == parity {
			parityLost = true
		}
	}
	for _, col := range failedCols {
		if col == parity {
			continue // lost parity alone: data columns are intact
		}
		if parity >= 0 && !parityLost {
			continue // parity protects the lost column
		}
		for pic, e := range perCol[col] {
			loc := c.lay.loc(sg, seg, col, int64(pic)+1)
			if dirty {
				return fmt.Errorf("%w: dirty page %d on failed ssd %d without parity", ErrDataLoss, e.lba, col)
			}
			c.invalidateSSD(loc)
			c.mapping.del(e.lba)
		}
	}
	return nil
}

// recordSegmentContent writes page tags, parity tags, and MS/ME summary
// blobs to the device content stores. It runs only under cfg.TrackContent
// verification mode.
func (c *Cache) recordSegmentContent(sg, seg, gen int64, parity int, perCol [][]summaryEntry, colTags [][]blockdev.Tag, maxUsed int64, failedCols []int) error {
	colBase := c.lay.colOffset(c.cfg, sg, seg)
	basePage := colBase / blockdev.PageSize
	for col := 0; col < c.lay.m; col++ {
		isParity := col == parity
		if len(perCol[col]) == 0 && !isParity {
			continue
		}
		if slices.Contains(failedCols, col) {
			continue
		}
		cont := c.cfg.SSDs[col].Content()
		used := int64(len(perCol[col]))
		if isParity {
			used = maxUsed
		}
		for pic := int64(1); pic <= used; pic++ {
			var tag blockdev.Tag
			if isParity {
				for _, dc := range colTags {
					if int64(len(dc)) >= pic && dc != nil {
						tag = tag.XOR(dc[pic-1])
					}
				}
			} else {
				tag = colTags[col][pic-1]
			}
			if err := cont.WriteTag(basePage+pic, tag); err != nil {
				return err
			}
		}
		s := &summary{
			kind: kindMS, gen: gen, sg: sg, seg: seg,
			col: uint8(col), parityCol: int8(parity), entries: perCol[col],
		}
		if err := cont.WriteBlob(basePage, s.marshal()); err != nil {
			return err
		}
		s.kind = kindME
		if err := cont.WriteBlob(basePage+c.lay.pagesPerCol-1, s.marshal()); err != nil {
			return err
		}
	}
	return nil
}

// writeSuperblock fills Segment Group 0 with the instance superblock; it is
// written once at assembly time (virtual time zero) and is read-only
// thereafter. Each member's superblock is flushed before the next member is
// stamped, so a crash mid-assembly leaves a prefix of recognizable members.
func (c *Cache) writeSuperblock() error {
	sb := &superblock{
		ssds:           uint32(c.lay.m),
		eraseGroupSize: c.cfg.EraseGroupSize,
		segmentColumn:  c.cfg.SegmentColumn,
		numSG:          c.lay.numSG,
	}
	blob := sb.marshal()
	for _, dev := range c.cfg.SSDs {
		if _, err := dev.Submit(0, blockdev.Request{Op: blockdev.OpWrite, Off: 0, Len: blockdev.PageSize}); err != nil {
			return fmt.Errorf("superblock write: %w", err)
		}
		if c.cfg.TrackContent {
			if err := dev.Content().WriteBlob(0, blob); err != nil {
				return err
			}
		}
		if _, err := dev.Flush(0); err != nil {
			return fmt.Errorf("superblock flush: %w", err)
		}
	}
	return nil
}
