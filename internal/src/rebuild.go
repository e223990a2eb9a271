package src

import (
	"errors"
	"fmt"

	"srccache/internal/blockdev"
	"srccache/internal/vtime"
)

// Online repair. ReplaceSSD installs a fresh device in place of a failed
// column and arms a background rebuild walker; RebuildStep reconstructs one
// segment column at a time from the survivors plus parity, so foreground
// traffic interleaves with the rebuild in virtual time. Until a segment is
// rebuilt, reads of its replaced column are routed through the degraded path
// (the fresh device holds no data there). Parityless clean segments cannot be
// reconstructed; their pages on the lost column are dropped and reload from
// primary storage on demand.

// rebuildState tracks an in-progress column rebuild.
type rebuildState struct {
	col    int
	queue  []int64        // absolute segment numbers still to rebuild, in order
	needed map[int64]bool // same set, for O(1) degraded-routing checks
	total  int
}

// awaitingRebuild reports whether the byte offset on col falls in a segment
// that has not been rebuilt yet — its data must come from the degraded path.
func (c *Cache) awaitingRebuild(col int, off int64) bool {
	if c.rebuild == nil || c.rebuild.col != col {
		return false
	}
	sg := off / c.cfg.EraseGroupSize
	seg := (off % c.cfg.EraseGroupSize) / c.cfg.SegmentColumn
	return c.rebuild.needed[sg*c.lay.segsPerSG+seg]
}

// rebuildForget drops a reclaimed group's segments from the rebuild set:
// trimmed segments hold no data, and any refill writes to all columns anew.
func (c *Cache) rebuildForget(sg int64) {
	if c.rebuild == nil {
		return
	}
	for seg := int64(0); seg < c.lay.segsPerSG; seg++ {
		delete(c.rebuild.needed, sg*c.lay.segsPerSG+seg)
	}
}

// ReplaceSSD installs fresh in place of column col's device (hot spare
// insertion after a drive failure) and starts a background rebuild. The
// caller drives the rebuild with RebuildStep, interleaved with foreground
// traffic; reads of not-yet-rebuilt ranges are served degraded meanwhile.
// The stamped superblock must be flushed before the member counts as
// installed: a crash before the flush must revert to the pre-replacement
// array, not see a half-initialized member.
func (c *Cache) ReplaceSSD(at vtime.Time, col int, fresh blockdev.Device) (vtime.Time, error) {
	if col < 0 || col >= c.lay.m {
		return at, fmt.Errorf("src: replace of unknown ssd %d", col)
	}
	if c.rebuild != nil {
		return at, fmt.Errorf("src: rebuild of ssd %d already in progress", c.rebuild.col)
	}
	if fresh.Capacity() != c.cfg.SSDs[col].Capacity() {
		return at, fmt.Errorf("src: replacement capacity %d != member capacity %d",
			fresh.Capacity(), c.cfg.SSDs[col].Capacity())
	}
	c.cfg.SSDs[col] = fresh
	c.devErrs[col] = 0
	c.colDown[col] = false
	// Stamp the superblock so the new member is recognized after a crash.
	done, err := fresh.Submit(at, blockdev.Request{Op: blockdev.OpWrite, Off: 0, Len: blockdev.PageSize})
	if err != nil {
		return at, fmt.Errorf("superblock write: %w", err)
	}
	if c.cfg.TrackContent {
		sb := &superblock{
			ssds:           uint32(c.lay.m),
			eraseGroupSize: c.cfg.EraseGroupSize,
			segmentColumn:  c.cfg.SegmentColumn,
			numSG:          c.lay.numSG,
		}
		if err := fresh.Content().WriteBlob(0, sb.marshal()); err != nil {
			return done, err
		}
	}
	t, err := fresh.Flush(done)
	if err != nil {
		return done, fmt.Errorf("superblock flush: %w", err)
	}
	c.startRebuild(col)
	return t, nil
}

// startRebuild enumerates the segments that currently hold data on col and
// arms degraded routing for them until each is rebuilt.
func (c *Cache) startRebuild(col int) {
	rs := &rebuildState{col: col, needed: make(map[int64]bool)}
	for sg := int64(1); sg < c.lay.numSG; sg++ {
		g := &c.groups[sg]
		if g.state != groupClosed && g.state != groupActive {
			continue
		}
		segs := c.lay.segsPerSG
		if g.state == groupActive {
			segs = c.nextSeg
		}
		for seg := int64(0); seg < segs; seg++ {
			abs := sg*c.lay.segsPerSG + seg
			rs.queue = append(rs.queue, abs)
			rs.needed[abs] = true
		}
	}
	rs.total = len(rs.queue)
	if rs.total > 0 {
		c.rebuild = rs
	}
}

// RebuildStep reconstructs the next pending segment column and reports
// whether more remain. Callers interleave steps with foreground traffic;
// the returned time is when the step's I/O completed.
func (c *Cache) RebuildStep(at vtime.Time) (done vtime.Time, pending bool, err error) {
	rs := c.rebuild
	if rs == nil {
		return at, false, nil
	}
	done = at
	for len(rs.queue) > 0 {
		abs := rs.queue[0]
		if !rs.needed[abs] {
			rs.queue = rs.queue[1:]
			continue // forgotten: its group was reclaimed mid-rebuild
		}
		sg, seg := abs/c.lay.segsPerSG, abs%c.lay.segsPerSG
		if st := c.groups[sg].state; st != groupClosed && st != groupActive {
			delete(rs.needed, abs)
			rs.queue = rs.queue[1:]
			continue
		}
		t, err := c.rebuildSegment(at, sg, seg, rs.col)
		if err != nil {
			return at, true, err
		}
		delete(rs.needed, abs)
		rs.queue = rs.queue[1:]
		c.repair.RebuiltSegments++
		done = t
		break
	}
	if len(rs.needed) == 0 {
		// c.rebuild must be cleared before the barrier: writeSegment
		// suppresses per-segment flushes while a rebuild is in flight.
		c.rebuild = nil
		t, err := c.finishRebuild(done)
		return t, false, err
	}
	return done, true, nil
}

// finishRebuild is the rebuild completion barrier: flush every member
// before declaring the rebuild converged. The reconstructed column (and any
// segments GC moved while the rebuild ran) is volatile until flushed — a
// crash would revert the fresh device to empty and recovery would drop that
// column from every segment. Dirty buffers drain first: a rebuilt summary
// reflects the RAM view, in which pages rewritten since the last flush are
// holes — their replacement copies must reach the log before the barrier
// commits those holes.
func (c *Cache) finishRebuild(done vtime.Time) (vtime.Time, error) {
	t, err := c.drainDirty(done)
	if err != nil {
		return done, err
	}
	t, err = c.flushSSDs(vtime.Max(done, t))
	if err != nil {
		return done, err
	}
	return vtime.Max(done, t), nil
}

// rebuildSegment reconstructs one segment's column col: parity-protected
// segments are rebuilt from the survivors; a parityless clean segment's
// pages on col are dropped from the mapping (they reload from primary on
// demand, no device I/O).
func (c *Cache) rebuildSegment(at vtime.Time, sg, seg int64, col int) (vtime.Time, error) {
	g := &c.groups[sg]
	colBase := c.lay.colOffset(c.cfg, sg, seg)
	if int(g.segParity[seg]) < 0 {
		for pic := int64(1); pic <= c.lay.payloadPages; pic++ {
			loc := c.lay.loc(sg, seg, col, pic)
			s := c.lay.localSlot(loc)
			if g.slots[s] == slotFree {
				continue
			}
			lba, _ := unpackSlot(g.slots[s])
			if e, ok := c.mapping.get(lba); ok && e.loc == loc {
				c.dropPage(lba, e)
			}
		}
		return at, nil
	}
	readDone := at
	for other := 0; other < c.lay.m; other++ {
		if other == col {
			continue
		}
		t, err := c.submitSSD(at, other, blockdev.Request{
			Op: blockdev.OpRead, Off: colBase, Len: c.cfg.SegmentColumn,
		})
		if err != nil {
			return at, fmt.Errorf("rebuild source %d: %w", other, err)
		}
		readDone = vtime.Max(readDone, t)
	}
	t, err := c.submitSSD(readDone, col, blockdev.Request{
		Op: blockdev.OpWrite, Off: colBase, Len: c.cfg.SegmentColumn,
	})
	if err != nil {
		return at, fmt.Errorf("rebuild target: %w", err)
	}
	if c.cfg.TrackContent {
		if err := c.rebuildColumnContent(sg, seg, col); err != nil {
			return at, err
		}
	}
	return t, nil
}

// Scrubbing (paper §4.1's checksum verification, made proactive): ScrubStep
// walks written segments in a round-robin cursor and verifies every mapped
// page through ReadCheck, the checked read, repairing silent corruption in
// place.

// scrubCursor is the round-robin scrub position.
type scrubCursor struct {
	sg, seg int64
}

// ScrubStep verifies the mapped pages of the next written segment in the
// scrub rotation, repairing any corruption it finds, and advances the
// cursor. Segments awaiting rebuild are skipped (the rebuild restores them
// first). Requires TrackContent.
func (c *Cache) ScrubStep(at vtime.Time) (vtime.Time, error) {
	if !c.cfg.TrackContent {
		return at, errors.New("src: scrubbing requires TrackContent")
	}
	total := (c.lay.numSG - 1) * c.lay.segsPerSG
	done := at
	for step := int64(0); step < total; step++ {
		sg, seg := c.scrub.sg, c.scrub.seg
		c.scrubAdvance()
		g := &c.groups[sg]
		if g.state != groupClosed && g.state != groupActive {
			continue
		}
		if g.state == groupActive && sg == c.active && seg >= c.nextSeg {
			continue // not written yet
		}
		if c.rebuild != nil && c.rebuild.needed[sg*c.lay.segsPerSG+seg] {
			continue
		}
		// Snapshot the segment's mapped pages first: a repair can move
		// pages (drop + refetch) and even trigger segment writes and GC.
		type target struct{ lba, loc int64 }
		baseLoc := (sg*c.lay.segsPerSG + seg) * c.lay.slotsPerSeg()
		var targets []target
		for s := int64(0); s < c.lay.slotsPerSeg(); s++ {
			loc := baseLoc + s
			if packed := g.slots[c.lay.localSlot(loc)]; packed != slotFree {
				lba, _ := unpackSlot(packed)
				targets = append(targets, target{lba: lba, loc: loc})
			}
		}
		for _, tg := range targets {
			e, ok := c.mapping.get(tg.lba)
			if !ok || e.loc != tg.loc || !e.state.onSSD() {
				continue // moved or dropped since the snapshot
			}
			_, t, err := c.ReadCheck(done, tg.lba)
			if err != nil {
				return done, err
			}
			c.repair.ScrubbedPages++
			done = t
		}
		return done, nil
	}
	return done, nil
}

// Scrub performs one full scrub pass over every written segment.
func (c *Cache) Scrub(at vtime.Time) (vtime.Time, error) {
	total := (c.lay.numSG - 1) * c.lay.segsPerSG
	done := at
	for i := int64(0); i < total; i++ {
		t, err := c.ScrubStep(done)
		if err != nil {
			return done, err
		}
		done = t
	}
	return done, nil
}

func (c *Cache) scrubAdvance() {
	c.scrub.seg++
	if c.scrub.seg >= c.lay.segsPerSG {
		c.scrub.seg = 0
		c.scrub.sg++
		if c.scrub.sg >= c.lay.numSG {
			c.scrub.sg = 1
		}
	}
}
