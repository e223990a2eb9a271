package src

import (
	"errors"
	"fmt"

	"srccache/internal/blockdev"
	"srccache/internal/vtime"
)

// Free-space reclamation (paper §4.2). SRC reclaims whole Segment Groups.
// S2D destages dirty data to primary storage and drops clean data; Sel-GC
// instead copies dirty data and hot clean data back into the log (S2S)
// while utilization is below U_MAX, preserving cache contents at the price
// of extra SSD traffic.

// liveEntry is one valid page gathered from a victim group.
type liveEntry struct {
	lba   int64
	loc   int64
	dirty bool
	read  bool         // staged from SSD (dirty always; hot clean under S2S)
	tag   blockdev.Tag // verified content (read entries, TrackContent only)
}

// gc reclaims groups until at least two are free. Reclaimed groups are
// reused, overwriting their old summary blobs — the only durable record of
// any pages S2S moved out — so each round drains the dirty tails and
// flushes before its trim: a destruction never commits before its
// replacements.
//
// Fault-free, no round runs out of space (paper §4.2: S2D of the oldest
// group always frees it). A copy round writes only what copyFits admitted.
// A destage round writes only the dirty tails it drains, and only the first
// round finds any: at most the segment of host writes whose seal called gc.
// A group is free to take it: gc returns with two and allocSegment calls it
// before taking the last, and when a crash leaves Recover none, hostWrite
// reclaims before it buffers anything. With at most one group free and one
// active, numSG ≥ 4 leaves a closed one to pick. The loop ends: copy rounds
// take only groups closed before the call, so only they write, and the
// groups they fill bound the rest. Only faults reach ErrNoFreeGroups: an
// abandoned segment write keeps its segment.
func (c *Cache) gc(at vtime.Time) error {
	c.inGC = true
	defer func() { c.inGC = false }()
	since := c.seqCtr // groups opened after this hold this call's copies
	for len(c.freeSGs) < 2 {
		victim, oldest := c.pickVictim(), c.fifo[0]
		// Sel-GC copies while utilization is below U_MAX; S2D otherwise. A
		// fully live victim is always destaged (copying it would make no
		// space), and so is one whose round copyFits refuses.
		wantCopy := c.copyEligible() && c.groups[victim].valid < c.groups[victim].paycap
		copyMode := wantCopy && c.copyFits(victim, victim != oldest, since)
		if !copyMode && victim != oldest {
			// Destage forgets records: dirty pages move to primary and clean
			// pages are dropped, destroying the newest on-media record of
			// those LBAs. Recovery resurrects the newest surviving record,
			// so forgetting is only crash-safe from the oldest closed group,
			// where FIFO destruction order (plus the flush barrier below)
			// guarantees every older record is already durably gone. Greedy
			// and CostBenefit keep their preference for copy-mode victims
			// and fall back to the oldest group when destaging.
			victim = oldest
			wantCopy = c.copyEligible() && c.groups[victim].valid < c.groups[victim].paycap
			copyMode = wantCopy && c.copyFits(victim, false, since)
		}
		if wantCopy && !copyMode {
			c.counters.GCForcedS2D++
		}
		// A non-oldest copy-mode victim must copy even cold clean pages:
		// dropping one forgets its newest record while stale older records
		// may survive in groups that are not yet reclaimed.
		keepCold := copyMode && victim != oldest
		live, readDone, err := c.evacuate(at, victim, copyMode, keepCold)
		if err != nil {
			return err
		}
		if copyMode {
			err = c.reinsert(readDone, live, keepCold)
		} else {
			err = c.destage(readDone, live)
		}
		if err != nil {
			return err
		}
		// Crash-ordering barrier (found by the torture engine's prefix
		// schedules): the victim's trim destroys the only on-media record of
		// everything just moved out of it. Drain the copies and flush before
		// trimming, so a persisted trim implies the replacement copies — and
		// every earlier trim — are durable. Each trim is thereby separated
		// from the previous one by at least one flush, giving the strictly
		// oldest-first durable destruction order recovery depends on.
		done, err := c.drainDirty(readDone)
		if err != nil {
			return err
		}
		if _, err := c.flushSSDs(done); err != nil {
			return err
		}
		if err := c.reclaim(at, victim); err != nil {
			return err
		}
	}
	return nil
}

// copyFits is Sel-GC's admission test for a copy (S2S) round of victim:
// everything the round can write must fit in the free segments (the rest of
// the active group and every free group). Its dirty pages go to the GC
// buffer, or the dirty one without it, and the clean pages it keeps to the
// clean buffer. A buffer seals whenever it fills and the drain seals the
// dirty tails, each seal but a drain's last taking a segment's worth of
// slots, so n slots given k pages seal at most ⌈(n+k)/cap⌉ segments when
// drained, ⌊(n+k)/cap⌋ when not. Their sum is the worst case covered. A
// victim opened after since is refused: this call copied its pages already.
func (c *Cache) copyFits(victim int64, keepCold bool, since int64) bool {
	g := &c.groups[victim]
	if g.seq > since {
		return false
	}
	var dirty, clean int64
	for _, packed := range g.slots {
		if packed == slotFree {
			continue
		}
		if lba, d := unpackSlot(packed); d {
			dirty++
		} else if keepCold || c.hot.Get(lba) {
			clean++
		}
	}
	need := (int64(c.cleanBuf.Len()) + clean) / int64(c.cleanBuf.Cap())
	if c.gcBuf != nil {
		need += drainedSegs(c.dirtyBuf, 0) + drainedSegs(c.gcBuf, dirty)
	} else {
		need += drainedSegs(c.dirtyBuf, dirty)
	}
	free := int64(len(c.freeSGs)) * c.lay.segsPerSG
	if c.active >= 0 {
		free += c.lay.segsPerSG - c.nextSeg
	}
	return need <= free
}

// drainedSegs bounds the segments b seals once k more pages arrive and it
// is drained.
func drainedSegs(b *segBuffer, k int64) int64 {
	if int64(b.Live())+k == 0 {
		return 0
	}
	return (int64(b.Len()) + k + int64(b.Cap()) - 1) / int64(b.Cap())
}

// copyEligible reports whether Sel-GC may copy live data back into the log
// (S2S): strictly while utilization is below U_MAX (paper §4.2). At or
// above U_MAX the cache is too full for copying to converge, and GC falls
// back to S2D.
func (c *Cache) copyEligible() bool {
	return c.cfg.GC == SelGC && c.utilization() < c.cfg.UMax
}

// pickVictim chooses the closed group to reclaim (there is one; see gc):
// the oldest-filled group under FIFO, the least-utilized under Greedy, or
// the best age-weighted space-per-copy trade under CostBenefit.
func (c *Cache) pickVictim() int64 {
	switch c.cfg.Victim {
	case Greedy:
		best := c.fifo[0]
		for _, sg := range c.fifo[1:] {
			if c.groups[sg].valid < c.groups[best].valid {
				best = sg
			}
		}
		return best
	case CostBenefit:
		best, bestScore := int64(-1), -1.0
		for _, sg := range c.fifo {
			if score := c.costBenefit(sg); score > bestScore {
				best, bestScore = sg, score
			}
		}
		return best
	default: // FIFO
		return c.fifo[0]
	}
}

// costBenefit scores a group LFS-style: freed space per copy cost, scaled
// by age (older groups are more likely done being invalidated).
func (c *Cache) costBenefit(sg int64) float64 {
	g := &c.groups[sg]
	if g.paycap == 0 {
		return 0
	}
	u := float64(g.valid) / float64(g.paycap)
	age := float64(c.seqCtr - g.seq + 1)
	return age * (1 - u) / (1 + u)
}

// evacuate gathers every valid page of the victim into RAM, staging the
// pages that will move through the checked read: dirty pages always (they
// are either destaged or copied), hot clean pages under S2S copy mode, and
// all clean pages when keepCold copies them forward. A clean page the read
// cannot vouch for is dropped and reloads from primary on demand. It clears
// the victim's slots and mapping entries. The returned entries are scratch,
// valid until the next evacuate.
func (c *Cache) evacuate(at vtime.Time, victim int64, copyMode, keepCold bool) ([]liveEntry, vtime.Time, error) {
	g := &c.groups[victim]
	live := c.scratch.live[:0]
	base := victim * c.lay.slotsPerSG()
	for s, packed := range g.slots {
		if packed == slotFree {
			continue
		}
		lba, dirty := unpackSlot(packed)
		live = append(live, liveEntry{
			lba: lba, loc: base + int64(s), dirty: dirty,
			read: dirty || (copyMode && (keepCold || c.hot.Get(lba))),
		})
	}
	c.scratch.live = live

	// Stage the pages that move, one readSSD per run of neighbouring
	// locations. A run extends exactly when loc == prev+1: live pages sit
	// only at pics 1..payloadPages of a column, never on MS or ME (pics 0
	// and pagesPerCol-1), so two consecutive live locations can never
	// straddle a column, a segment or a group.
	readDone := at
	for i := 0; i < len(live); {
		j := i + 1
		if live[i].read {
			for j < len(live) && live[j].read && live[j].loc == live[j-1].loc+1 {
				j++
			}
			col, off := c.lay.devOffset(c.cfg, live[i].loc)
			t, _, err := c.readSSD(at, live[i].loc, col, off/blockdev.PageSize, int64(j-i))
			if err != nil {
				return nil, readDone, err
			}
			readDone = vtime.Max(readDone, t)
		}
		i = j
	}

	// Clear the slots, keeping the pages the read did not drop.
	kept := live[:0]
	for _, e := range live {
		s := e.loc - base
		if g.slots[s] == slotFree {
			continue
		}
		if c.cfg.TrackContent && e.read {
			var err error
			if e.tag, err = c.expectedTag(e.lba); err != nil {
				return nil, readDone, err
			}
		}
		kept = append(kept, e)
		g.slots[s] = slotFree
		g.valid--
		c.totalValid--
		c.mapping.del(e.lba)
	}
	return kept, readDone, nil
}

// reclaim trims the victim's region on every SSD and returns it to the free
// pool.
func (c *Cache) reclaim(at vtime.Time, victim int64) error {
	g := &c.groups[victim]
	if g.valid != 0 {
		return fmt.Errorf("src: reclaiming group %d with %d valid pages", victim, g.valid)
	}
	for col := range c.cfg.SSDs {
		_, err := c.submitSSD(at, col, blockdev.Request{
			Op:  blockdev.OpTrim,
			Off: victim * c.cfg.EraseGroupSize,
			Len: c.cfg.EraseGroupSize,
		})
		if err != nil && !isDeviceFailed(err) {
			return err
		}
	}
	// Segments of a reclaimed group need no rebuild: the trim emptied them,
	// and any refill writes every column anew.
	c.rebuildForget(victim)
	c.totalPaycap -= g.paycap
	g.paycap = 0
	g.state = groupFree
	for i, sg := range c.fifo {
		if sg == victim {
			c.fifo = append(c.fifo[:i], c.fifo[i+1:]...)
			break
		}
	}
	c.freeSGs = append(c.freeSGs, victim)
	c.counters.GroupReclaims++
	return nil
}

// reinsert implements the S2S path of Sel-GC: dirty pages re-enter the
// dirty segment buffer, hot clean pages the clean buffer (with their hot
// bit consumed — second chance), and cold clean pages are dropped — unless
// keepCold copies them too, the crash-safe mode for non-oldest victims.
func (c *Cache) reinsert(at vtime.Time, live []liveEntry, keepCold bool) error {
	for _, e := range live {
		if _, ok := c.mapping.get(e.lba); ok {
			continue // superseded while gathering: the live copy keeps the hot bit
		}
		// In SeparateGCBuffer mode, aged dirty data (GC survivors) forms
		// its own segments instead of mixing with fresh host writes.
		buf, state := c.dirtyBuf, stateBufDirty
		switch {
		case !e.dirty && !keepCold && !c.hot.Get(e.lba):
			continue // cold clean data: discarding it costs nothing
		case !e.dirty:
			c.hot.Clear(e.lba)
			buf, state = c.cleanBuf, stateBufClean
		case c.gcBuf != nil:
			buf, state = c.gcBuf, stateBufGC
		}
		slot := buf.Append(e.lba, e.tag)
		c.mapping.set(e.lba, entry{state: state, loc: int64(slot)})
		c.counters.GCCopyBytes += blockdev.PageSize
		if buf.Full() {
			if _, err := c.writeSegment(at, buf, e.dirty); err != nil &&
				!errors.Is(err, errSegmentAbandoned) {
				return err
			}
		}
	}
	return nil
}

// destage implements S2D: dirty pages are written back to primary storage
// (coalesced into LBA-contiguous runs) and clean pages are simply dropped.
func (c *Cache) destage(readDone vtime.Time, live []liveEntry) error {
	lbas := c.scratch.lbas[:0]
	for _, e := range live {
		if e.dirty {
			lbas = append(lbas, e.lba)
		}
	}
	c.scratch.lbas = lbas
	_, err := c.destageRuns(readDone, lbas)
	return err
}

func isDeviceFailed(err error) bool {
	return errors.Is(err, blockdev.ErrDeviceFailed)
}
