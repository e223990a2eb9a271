package src

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"

	"srccache/internal/bench"
	"srccache/internal/blockdev"
	"srccache/internal/vtime"
)

// Errors reported by the cache.
var (
	// ErrNoFreeGroups reports a segment write that found no free Segment
	// Group, or a gc that ran past its bound on rounds. Only faults can
	// cause either on correct code (see gc).
	ErrNoFreeGroups = errors.New("src: no reclaimable segment groups")
	// ErrDataLoss reports unrecoverable data (an SSD failure with no
	// redundancy covering the lost pages).
	ErrDataLoss = errors.New("src: unrecoverable data loss")
)

// Cache is an SRC cache instance. It implements bench.Cache.
type Cache struct {
	cfg Config
	lay layout

	groups      []group
	freeSGs     []int64 // FIFO queue of free groups
	fifo        []int64 // closed groups in fill order
	active      int64
	nextSeg     int64
	seqCtr      int64
	segGen      int64 // global segment generation for metadata summaries
	inGC        bool
	totalValid  int64
	totalPaycap int64

	mapping  pageTable
	dirtyBuf *segBuffer
	cleanBuf *segBuffer
	gcBuf    *segBuffer // S2S dirty copies (SeparateGCBuffer mode), else nil
	versions []uint64   // per-page write version (TrackContent only), else nil

	counters    bench.Counters
	wastedSlots int64 // padding from partial segments and dead buffer slots

	devErrs []int64 // corrected errors charged per SSD (md-style budget)
	colDown []bool  // columns escalated to fail-stop by the error budget
	rebuild *rebuildState
	scrub   scrubCursor
	repair  RepairStats

	scratch scratch
}

// scratch is the working memory every segment seal and every reclaim
// reuses, so neither allocates once it has grown to size. One set is safe
// because reentry is bounded: writeSegment nests only through allocSegment's
// gc, which runs to completion before the outer call takes its snapshot, and
// gc never nests (inGC), so evacuate's live set outlives the seals reinsert
// triggers.
type scratch struct {
	slots     []bufSlot        // spare buffer array, swapped in at each seal
	cols      []int            // payloadCols' columns
	writeCols []int            // payload columns plus parity
	perCol    [][]summaryEntry // summary entries per column
	colTags   [][]blockdev.Tag // content tags per column (TrackContent only)
	live      []liveEntry      // evacuate's gathered pages
	lbas      []int64          // dirty pages destage writes back
	sorted    []int64          // destageRuns' radix-sort buffer
}

// rows empties each of the first n rows of s, keeping their arrays.
func rows[T any](s [][]T, n int) [][]T {
	for len(s) < n {
		s = append(s, nil)
	}
	s = s[:n]
	for i := range s {
		s[i] = s[i][:0]
	}
	return s
}

var _ bench.Cache = (*Cache)(nil)

// New assembles an SRC cache over the configured SSD array and writes the
// superblock group.
func New(cfg Config) (*Cache, error) {
	cfg, err := cfg.Validate()
	if err != nil {
		return nil, err
	}
	lay := newLayout(cfg)
	c := &Cache{
		cfg:     cfg,
		lay:     lay,
		groups:  make([]group, lay.numSG),
		active:  -1,
		mapping: newPageTable(primaryPages(cfg)),
		devErrs: make([]int64, lay.m),
		colDown: make([]bool, lay.m),
		scrub:   scrubCursor{sg: 1},
	}
	if cfg.TrackContent {
		c.versions = make([]uint64, primaryPages(cfg))
	}
	c.dirtyBuf = newSegBuffer(c.bufCapacity(true))
	c.cleanBuf = newSegBuffer(c.bufCapacity(false))
	if cfg.SeparateGCBuffer {
		c.gcBuf = newSegBuffer(c.bufCapacity(true))
	}

	// Group 0 holds the superblock (paper §4.1): written once, read-only.
	c.groups[0].state = groupSuperblock
	if err := c.writeSuperblock(); err != nil {
		return nil, err
	}
	for sg := int64(1); sg < lay.numSG; sg++ {
		c.groups[sg].state = groupFree
		c.freeSGs = append(c.freeSGs, sg)
	}
	return c, nil
}

// Config returns the effective configuration.
func (c *Cache) Config() Config { return c.cfg }

// Counters implements bench.Cache.
func (c *Cache) Counters() bench.Counters { return c.counters }

// CacheDevices implements bench.Cache.
func (c *Cache) CacheDevices() []blockdev.Device { return c.cfg.SSDs }

// Primary returns the backing store.
func (c *Cache) Primary() blockdev.Device { return c.cfg.Primary }

// payloadCols lists the columns that carry payload in a segment of the
// given kind at the given absolute segment number, and the parity column
// (-1 when parityless). cols is scratch, valid until the next call.
func (c *Cache) payloadCols(absSeg int64, dirty bool) (cols []int, parity int) {
	parity = -1
	if dirty || c.cfg.Parity == PC {
		parity = parityCol(c.cfg.Level, c.lay.m, absSeg)
	}
	cols = c.scratch.cols[:0]
	for col := 0; col < c.lay.m; col++ {
		if col != parity {
			cols = append(cols, col)
		}
	}
	c.scratch.cols = cols
	return cols, parity
}

// bufCapacity is the payload capacity of one segment of the given kind —
// the size of the corresponding segment buffer.
func (c *Cache) bufCapacity(dirty bool) int64 {
	cols, _ := c.payloadCols(0, dirty)
	return int64(len(cols)) * c.lay.payloadPages
}

// utilization reports live payload pages over the payload capacity of all
// written (active + closed) segments — the quantity Sel-GC compares with
// U_MAX.
func (c *Cache) utilization() float64 {
	if c.totalPaycap == 0 {
		return 0
	}
	return float64(c.totalValid) / float64(c.totalPaycap)
}

// State is one snapshot of the cache: the one place its state is read, by
// tests, harnesses and a running daemon alike. WastedSlots, Repair and
// Counters are cumulative since assembly; every other field is a gauge of
// the instant.
type State struct {
	// Utilization is live payload pages over the payload capacity of all
	// written segments; Sel-GC copies while it is below UMax.
	Utilization, UMax float64
	// Groups counts Segment Groups, the superblock's included, and
	// FreeGroups the free ones. ActiveGroup is the group taking segments
	// (-1 before the first) and NextSegment the next segment in it.
	Groups, FreeGroups       int
	ActiveGroup, NextSegment int64
	// DirtyBufferedPages counts pages waiting in the dirty segment buffers
	// (host writes plus, with SeparateGCBuffer, S2S copies) and
	// CleanBufferedPages those in the clean one. CachedPages counts the
	// logical pages cached in any state.
	DirtyBufferedPages, CleanBufferedPages, CachedPages int
	// WastedSlots counts payload slots lost to partial segments and
	// invalidated buffer entries.
	WastedSlots int64
	// RebuildColumn is the column being rebuilt (-1 when idle), with
	// RebuildRemaining of the RebuildTotal segments it started with still
	// to rebuild.
	RebuildColumn, RebuildRemaining, RebuildTotal int
	// Columns holds each SSD column's health, in column order.
	Columns  []Column
	Repair   RepairStats
	Counters bench.Counters
}

// Column is one SSD column's health in a State.
type Column struct {
	// Down reports the column escalated to fail-stop (error budget
	// exhausted, or the device failed hard).
	Down bool
	// Errors counts the corrected errors charged against its budget since
	// assembly or its last replacement.
	Errors int64
}

// State snapshots the cache. Columns reuses cols's array, so State
// allocates nothing once cols has grown to the array's width.
func (c *Cache) State(cols []Column) State {
	st := State{
		Utilization:        c.utilization(),
		UMax:               c.cfg.UMax,
		Groups:             int(c.lay.numSG),
		FreeGroups:         len(c.freeSGs),
		ActiveGroup:        c.active,
		NextSegment:        c.nextSeg,
		DirtyBufferedPages: c.dirtyBuf.Live(),
		CleanBufferedPages: c.cleanBuf.Live(),
		CachedPages:        c.mapping.count(),
		WastedSlots:        c.wastedSlots,
		RebuildColumn:      -1,
		Columns:            cols[:0],
		Repair:             c.repair,
		Counters:           c.counters,
	}
	if c.gcBuf != nil {
		st.DirtyBufferedPages += c.gcBuf.Live()
	}
	if rs := c.rebuild; rs != nil {
		st.RebuildColumn, st.RebuildRemaining, st.RebuildTotal = rs.col, len(rs.needed), rs.total
	}
	for col, down := range c.colDown {
		st.Columns = append(st.Columns, Column{Down: down, Errors: c.devErrs[col]})
	}
	return st
}

// tagFor derives the content tag for the current version of lba.
func (c *Cache) tagFor(lba int64) blockdev.Tag {
	if !c.cfg.TrackContent {
		return blockdev.ZeroTag
	}
	return blockdev.DataTag(lba, c.versions[lba])
}

// expectedTag is the one rule for what a cached copy of lba must hold: its
// current version, or, for a page never written through the cache, the tag
// on primary it was filled from. TrackContent only.
func (c *Cache) expectedTag(lba int64) (blockdev.Tag, error) {
	if v := c.versions[lba]; v > 0 {
		return blockdev.DataTag(lba, v), nil
	}
	return c.cfg.Primary.Content().ReadTag(lba)
}

// invalidateSSD drops an on-SSD mapping entry's slot accounting.
func (c *Cache) invalidateSSD(loc int64) {
	g := &c.groups[c.lay.groupOf(loc)]
	s := c.lay.localSlot(loc)
	if g.slots[s] != slotFree {
		g.slots[s] = slotFree
		g.valid--
		c.totalValid--
	}
}

// dropPage removes lba from the cache entirely.
func (c *Cache) dropPage(lba int64, e entry) {
	switch e.state {
	case stateBufClean:
		c.cleanBuf.Invalidate(int(e.loc))
	case stateBufDirty:
		c.dirtyBuf.Invalidate(int(e.loc))
	case stateBufGC:
		c.gcBuf.Invalidate(int(e.loc))
	default:
		c.invalidateSSD(e.loc)
	}
	c.mapping.del(lba)
}

// Submit implements the host-facing block interface of the cache volume
// (the primary storage's address space). It is the cache's per-request
// entry point — the write/read hot path: a steady-state hit or buffered
// rewrite allocates nothing (TestSubmitSteadyStateAllocatesNothing), and
// neither does sealing a segment or reclaiming a group once the scratch has
// grown (TestSegmentSealAllocations, TestReclaimAllocatesNothing).
func (c *Cache) Submit(at vtime.Time, req blockdev.Request) (vtime.Time, error) {
	if err := req.Validate(c.cfg.Primary.Capacity()); err != nil {
		return at, err
	}
	switch req.Op {
	case blockdev.OpWrite:
		return c.hostWrite(at, req)
	case blockdev.OpRead:
		return c.hostRead(at, req)
	default: // trim: invalidate cached copies, forward to primary
		first := req.Off / blockdev.PageSize
		for p := first; p < first+req.Pages(); p++ {
			if e, ok := c.mapping.get(p); ok {
				c.dropPage(p, e)
			}
		}
		done, err := c.cfg.Primary.Submit(at, req)
		c.commitPrimary()
		return done, err
	}
}

// commitPrimary makes what the cache has written to primary storage
// durable at once. The paper takes primary storage to be durable (a
// redundant HDD RAID behind the cache), so its content store keeps no
// volatile log or undo record of the cache's writes for a crash that never
// reverts them. No device flush is issued: virtual time does not move.
func (c *Cache) commitPrimary() { c.cfg.Primary.Content().FlushContent() }

// hostWrite buffers each page in the dirty segment buffer, writing full
// segments out as they form. The acknowledgement is immediate for buffered
// pages and follows the segment write when one is triggered (write-back
// with natural SSD back-pressure).
func (c *Cache) hostWrite(at vtime.Time, req blockdev.Request) (vtime.Time, error) {
	// A crash can leave Recover no free group, and gc could not drain host
	// writes then: reclaim before buffering any (see gc).
	if len(c.freeSGs) == 0 {
		if err := c.gc(at); err != nil {
			return at, err
		}
	}
	first := req.Off / blockdev.PageSize
	pages := req.Pages()
	c.counters.Writes += pages
	c.counters.WriteBytes += req.Len
	ack := at
	for p := first; p < first+pages; p++ {
		if c.cfg.TrackContent {
			c.versions[p]++
		}
		if e, ok := c.mapping.get(p); ok {
			c.mapping.setHot(p, true) // a rewrite is a re-reference
			if e.state == stateBufDirty {
				c.dirtyBuf.SetTag(int(e.loc), c.tagFor(p))
				continue // already buffered dirty: updated in place
			}
			c.dropPage(p, e)
		}
		slot := c.dirtyBuf.Append(p, c.tagFor(p))
		c.mapping.set(p, entry{state: stateBufDirty, loc: int64(slot)})
		if c.dirtyBuf.Full() {
			done, err := c.writeSegment(ack, c.dirtyBuf, true)
			if err != nil {
				if !errors.Is(err, errSegmentAbandoned) {
					return ack, err
				}
				continue // still buffered; a later destage retries
			}
			ack = done
		}
	}
	return ack, nil
}

// hostRead serves hits from the segment buffers (RAM) and the SSDs, and
// misses from primary storage; miss data is staged and then collected in
// the clean segment buffer (paper §4.1).
func (c *Cache) hostRead(at vtime.Time, req blockdev.Request) (vtime.Time, error) {
	first := req.Off / blockdev.PageSize
	end := first + req.Pages()
	c.counters.Reads += req.Pages()
	c.counters.ReadBytes += req.Len

	// Pages are read in runs, at most one pending at a time: contiguous
	// misses as one primary read, SSD hits at consecutive locations as one
	// device read. run is the pending run's first entry (the zero entry for
	// misses) and runFirst its first page, -1 when none is pending. A page
	// that ends a pending run is looked up again once that run is read: a
	// fill, or the refetch of what a checked read could not vouch for, can
	// seal a segment whose gc round moves or drops the page, and a page it
	// dropped is a miss.
	done := at
	var run entry
	runFirst := int64(-1)
	for p := first; p < end; p++ {
		e, ok := c.mapping.get(p)
		if ok && runFirst >= 0 && run.state == 0 {
			t, err := c.fillFromPrimary(at, runFirst, p-runFirst)
			if err != nil {
				return done, err
			}
			done = vtime.Max(done, t)
			runFirst = -1
			e, ok = c.mapping.get(p)
		}
		if ok {
			c.counters.ReadHits++
			c.counters.ReadHitBytes += blockdev.PageSize
			c.mapping.setHot(p, true)
			if runFirst >= 0 && e.state.onSSD() && e.loc == run.loc+(p-runFirst) {
				continue // extends the SSD run
			}
		}
		if runFirst >= 0 && (ok || run.state != 0) {
			t, err := c.readRun(at, run, runFirst, p-runFirst)
			if err != nil {
				return done, err
			}
			done = vtime.Max(done, t)
			runFirst = -1
			e, ok = c.mapping.get(p)
		}
		if runFirst < 0 && (!ok || e.state.onSSD()) {
			run, runFirst = e, p
		}
	}
	if runFirst >= 0 {
		t, err := c.readRun(at, run, runFirst, end-runFirst)
		if err != nil {
			return done, err
		}
		done = vtime.Max(done, t)
	}
	return done, nil
}

// readRun reads the pages [lba, lba+pages) of one of hostRead's runs: misses
// from primary when first is the zero entry, else SSD hits from first on
// through the checked read, refetching from primary what it left uncached.
func (c *Cache) readRun(at vtime.Time, first entry, lba, pages int64) (vtime.Time, error) {
	if first.state == 0 {
		return c.fillFromPrimary(at, lba, pages)
	}
	ready, lost, err := c.readSSD(at, first.loc, int(first.col), int64(first.page), pages)
	if err != nil || lost == lostNone {
		return ready, err
	}
	// Refetch each run of pages the checked read left uncached.
	done, end := ready, lba+pages
	for p := lba; p < end; p++ {
		if _, ok := c.mapping.get(p); ok {
			continue
		}
		q := p + 1
		for ; q < end; q++ {
			if _, ok := c.mapping.get(q); ok {
				break
			}
		}
		t, err := c.fillFromPrimary(ready, p, q-p)
		if err != nil {
			return done, err
		}
		done, p = vtime.Max(done, t), q
	}
	return done, nil
}

// A loss says which pages of a run a checked read could not vouch for.
type loss uint8

const (
	lostNone  loss = iota // every page verified
	lostPages             // the run was read, and some pages did not verify
	lostRun               // the run could not be read: neither from its column nor by reconstruction
)

// readSSD is the cache's one checked read: host reads, ReadCheck, reclaim
// and rebuild read the SSDs through it. It reads the pages at the pages
// consecutive locations from loc, which lie on SSD col from device page
// page on. A latent sector error is repaired in place from parity, and a
// failed (or fail-stopped, or not-yet-rebuilt) column is read by
// reconstruction. Under TrackContent each page is then checked against
// expectedTag (paper §4.1: "SRC compares the original and calculated
// checksums when reading data"): a column that is down or awaiting rebuild
// was read by reconstruction, so the reconstruction is judged; any other
// mismatch is silent corruption, which repairCorrupt rebuilds from parity.
//
// A page the read cannot vouch for — unreadable or wrong, and not rebuilt
// to its expected tag from surviving columns that were actually read —
// follows dropUnvouched's one rule: a dirty page is ErrDataLoss, and a
// clean page leaves the cache. lost says which pages the read could not
// vouch for: a host read then refetches them from primary, reclaim moves
// only what is left, and a rebuild writes nothing over a run it could not
// read.
func (c *Cache) readSSD(at vtime.Time, loc int64, col int, page, pages int64) (done vtime.Time, lost loss, err error) {
	off, n := page*blockdev.PageSize, pages*blockdev.PageSize
	t, err := c.submitSSD(at, col, blockdev.Request{Op: blockdev.OpRead, Off: off, Len: n})
	if err != nil {
		unreadable := errors.Is(err, blockdev.ErrUnreadable)
		switch {
		case !unreadable && !isDeviceFailed(err):
			return at, lostNone, err
		case !c.hasParity(loc):
			err = fmt.Errorf("%w: ssd %d in parityless segment: %v", ErrDataLoss, col, err)
		case unreadable:
			t, err = c.repairUnreadableRun(at, col, off, n)
		default:
			t, err = c.reconstructColumns(at, col, off, n)
		}
		if errors.Is(err, ErrDataLoss) {
			return at, lostRun, c.dropUnvouched(loc, pages, err)
		}
		if err != nil {
			return at, lostNone, err
		}
	}
	if !c.cfg.TrackContent {
		return t, lostNone, nil
	}
	down := c.colDown[col] || c.awaitingRebuild(col, off)
	cont := c.cfg.SSDs[col].Content()
	slots := c.groups[c.lay.groupOf(loc)].slots
	done = t
	for i := int64(0); i < pages; i++ {
		packed := slots[c.lay.localSlot(loc+i)]
		// A free slot holds nothing to vouch for. rebuildSegment's
		// whole-column read reaches one: its column has pages never filled
		// or invalidated since the seal. Host reads, ReadCheck and reclaim
		// read only live runs (hostRead looks a page up again after any
		// run it reads in front of it).
		if packed == slotFree {
			continue
		}
		lba, _ := unpackSlot(packed)
		want, err := c.expectedTag(lba)
		if err != nil {
			return at, lost, err
		}
		corrupt := false
		if down {
			err = c.reconstructExpected(loc+i, want)
		} else if got, rerr := cont.ReadTag(page + i); rerr != nil {
			return at, lost, rerr
		} else if corrupt = got != want; corrupt {
			c.repair.CorruptionsDetected++
			var r vtime.Time
			r, err = c.repairCorrupt(t, loc+i, want)
			done = vtime.Max(done, r)
		}
		if errors.Is(err, ErrDataLoss) {
			lost, err = lostPages, c.dropUnvouched(loc+i, 1, err)
		}
		if err != nil {
			return at, lost, err
		}
		if corrupt {
			c.repair.CorruptionsRepaired++
		}
	}
	return done, lost, nil
}

// repairCorrupt rebuilds the page at loc, read at time at and found not to
// hold want, from the survivors of its parity segment and rewrites it, and
// commits the rewrite at once. A page without parity, or one its stripe
// does not rebuild to want, is ErrDataLoss for dropUnvouched to judge.
func (c *Cache) repairCorrupt(at vtime.Time, loc int64, want blockdev.Tag) (vtime.Time, error) {
	if !c.hasParity(loc) {
		return at, fmt.Errorf("%w: corrupt in parityless segment", ErrDataLoss)
	}
	col, off := c.lay.devOffset(c.cfg, loc)
	t, err := c.reconstructColumns(at, col, off, blockdev.PageSize)
	if err != nil {
		return at, err
	}
	if err := c.reconstructExpected(loc, want); err != nil {
		return at, err
	}
	if err := c.cfg.SSDs[col].Content().WriteTag(off/blockdev.PageSize, want); err != nil {
		return at, err
	}
	// Commit the rewrite at once. If it stayed volatile, a crash would
	// revert the page to its corrupted committed copy, and resurrected
	// corruptions could accumulate until two share a parity stripe — which
	// single-parity reconstruction cannot survive. The barrier spans the
	// whole array, not just the repaired member: a single-member flush would
	// commit that member's pending trims while its siblings' stayed
	// volatile, and a crash would then resurrect a segment group on some
	// columns only. (FlushNever keeps its no-barriers contract: flushSSDs is
	// a no-op there, and the policy accepts the resurrection exposure.)
	if t, err = c.flushSSDs(t); err != nil {
		return at, err
	}
	return t, nil
}

// fillFromPrimary fetches a miss run into the staging buffer (the returned
// completion time) and inserts the pages into the clean segment buffer.
func (c *Cache) fillFromPrimary(at vtime.Time, lba, pages int64) (vtime.Time, error) {
	done, err := c.cfg.Primary.Submit(at, blockdev.Request{
		Op: blockdev.OpRead, Off: lba * blockdev.PageSize, Len: pages * blockdev.PageSize,
	})
	if err != nil {
		return at, err
	}
	c.counters.FillBytes += pages * blockdev.PageSize
	for p := lba; p < lba+pages; p++ {
		var tag blockdev.Tag
		if c.cfg.TrackContent {
			t, err := c.cfg.Primary.Content().ReadTag(p)
			if err != nil {
				return done, err
			}
			tag = t
		}
		if _, ok := c.mapping.get(p); ok {
			continue // raced with a concurrent insert in this request
		}
		slot := c.cleanBuf.Append(p, tag)
		c.mapping.set(p, entry{state: stateBufClean, loc: int64(slot)})
		if c.cleanBuf.Full() {
			// Clean segment writes happen off the acknowledgement path:
			// the staging buffer already answered the host. An abandoned
			// write keeps the fills buffered for a later retry.
			if _, err := c.writeSegment(done, c.cleanBuf, false); err != nil &&
				!errors.Is(err, errSegmentAbandoned) {
				return done, err
			}
		}
	}
	return done, nil
}

// Flush implements the upper layer's flush: the dirty buffer is written out
// as a (possibly partial) segment and every SSD is flushed. Because dirty
// data is parity-protected on the SSD array, primary storage need not be
// touched (the design point distinguishing SRC from flush-through caches).
func (c *Cache) Flush(at vtime.Time) (vtime.Time, error) {
	done, err := c.drainDirty(at)
	if err != nil {
		return at, err
	}
	t, err := c.flushSSDs(done)
	if err != nil {
		return at, err
	}
	return vtime.Max(done, t), nil
}

// drainDirty destages the dirty buffers completely: a buffer can hold a
// little more than one segment's payload (segBuffer's overshoot). A write
// is abandoned only when a live device exhausted its transient retries,
// and each such rejection is charged to that device's error budget, so a
// retry on a fresh segment either lands or brings the column closer to
// fail-stop, after which the degraded write path takes over; a device that
// fails hard is fail-stopped at its first answer and costs no retry at
// all. The bound keeps a device that goes on rejecting with budget to
// spare from stalling the drain; the caller then sees the device error
// instead of a false durability acknowledgement.
func (c *Cache) drainDirty(at vtime.Time) (vtime.Time, error) {
	done := at
	for attempts := 0; ; {
		buf := c.dirtyBuf
		if buf.Empty() {
			if c.gcBuf == nil || c.gcBuf.Empty() {
				return done, nil
			}
			buf = c.gcBuf
		}
		t, err := c.writeSegment(done, buf, true)
		if errors.Is(err, errSegmentAbandoned) {
			attempts++
			if attempts >= 8 {
				return at, fmt.Errorf("src: cannot destage dirty data: %w", err)
			}
			continue
		}
		if err != nil {
			return at, err
		}
		done = vtime.Max(done, t)
	}
}

// flushSSDs issues the flush command to every SSD and returns the last
// completion. Fail-stopped columns are skipped. Under FlushNever the
// command is suppressed entirely — the Flashcache-style baseline whose
// data-loss window the crash matrix measures.
func (c *Cache) flushSSDs(at vtime.Time) (vtime.Time, error) {
	if c.cfg.Flush == FlushNever {
		return at, nil
	}
	done := at
	for col, d := range c.cfg.SSDs {
		if c.colDown[col] {
			continue
		}
		t, err := d.Flush(at)
		if err != nil {
			if errors.Is(err, blockdev.ErrDeviceFailed) {
				continue
			}
			return at, err
		}
		done = vtime.Max(done, t)
	}
	c.counters.SSDFlushes++
	return done, nil
}

// destageRuns writes a set of dirty pages to primary storage, coalescing
// LBA-contiguous pages into single writes. Reads from the SSDs must have
// completed by `ready`.
func (c *Cache) destageRuns(ready vtime.Time, lbas []int64) (vtime.Time, error) {
	if len(lbas) == 0 {
		return ready, nil
	}
	c.scratch.sorted = sortLBAs(lbas, c.scratch.sorted)
	done := ready
	runStart := lbas[0]
	prev := lbas[0]
	flush := func(endExclusive int64) error {
		n := (endExclusive - runStart) * blockdev.PageSize
		t, err := c.cfg.Primary.Submit(ready, blockdev.Request{
			Op: blockdev.OpWrite, Off: runStart * blockdev.PageSize, Len: n,
		})
		if err != nil {
			return err
		}
		c.counters.DestageBytes += n
		done = vtime.Max(done, t)
		return nil
	}
	for _, lba := range lbas[1:] {
		if lba == prev+1 {
			prev = lba
			continue
		}
		if err := flush(prev + 1); err != nil {
			return done, err
		}
		runStart, prev = lba, lba
	}
	if err := flush(prev + 1); err != nil {
		return done, err
	}
	if c.cfg.TrackContent {
		for _, lba := range lbas {
			if err := c.cfg.Primary.Content().WriteTag(lba, c.tagFor(lba)); err != nil {
				return done, err
			}
		}
		c.commitPrimary()
	}
	return done, nil
}

// sortLBAs sorts non-negative keys in place, least significant byte first:
// one pass counts the digits of every byte the largest key uses, then one
// scatter pass per byte moves the keys. That is O(n) where a comparison sort
// is O(n log n), and the order is the same. buf is scratch, grown to
// len(keys) and returned for reuse.
func sortLBAs(keys, buf []int64) []int64 {
	var top int64
	for _, k := range keys {
		top = max(top, k)
	}
	passes := uint(bits.Len64(uint64(top))+7) / 8
	var next [8][256]int // per byte: digit counts, then write cursors
	for _, k := range keys {
		for p := uint(0); p < passes; p++ {
			next[p][byte(k>>(8*p))]++
		}
	}
	buf = slices.Grow(buf[:0], len(keys))[:len(keys)]
	from, to := keys, buf
	for p := uint(0); p < passes; p++ {
		cur := &next[p]
		for d, pos := 0, 0; d < len(cur); d++ {
			cur[d], pos = pos, pos+cur[d]
		}
		for _, k := range from {
			d := byte(k >> (8 * p))
			to[cur[d]] = k
			cur[d]++
		}
		from, to = to, from
	}
	if passes%2 == 1 {
		copy(keys, buf)
	}
	return buf
}

func (c *Cache) String() string {
	return fmt.Sprintf("src(%d ssds, %v, %v/%v, %v, %v)",
		c.lay.m, c.cfg.Level, c.cfg.GC, c.cfg.Victim, c.cfg.Parity, c.cfg.Flush)
}
