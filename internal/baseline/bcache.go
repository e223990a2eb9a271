package baseline

import (
	"fmt"

	"srccache/internal/blockdev"
	"srccache/internal/vtime"
)

// Bcache settings. The paper compares at 2 MiB buckets (Bcache's default is
// 4 MiB) and raises writeback_percent from Bcache's 10 to 90.
const (
	bucketBytes    = 2 << 20
	bucketPages    = bucketBytes / blockdev.PageSize
	journalBuckets = 8 // reserved at the start of the volume for the journal
	// writebackPercent is the dirty share of the cache above which the
	// writeback thread destages at once.
	writebackPercent = 90
	// mergeBytes is how much of the sequential bucket-append stream the
	// block layer merges into one device request. Merging is what lets
	// the log-structured layout dodge parity read-modify-write on RAID.
	mergeBytes = 512 << 10
	// batchWindow is the journal accumulation window: metadata updates
	// arriving within it of a commit's issue ride in the same journal
	// blocks.
	batchWindow = vtime.Millisecond
)

// bucket tracks occupancy of one data bucket.
type bucket struct {
	used  int64 // pages appended
	valid int64 // pages still referenced
	seq   int64 // fill order
}

// bcacheBlock is the index entry for a cached page.
type bcacheBlock struct {
	off   int64 // byte offset on the cache volume
	dirty bool
}

// Bcache reproduces the behaviours of Linux's Bcache that the paper measures
// (Section 3.1): a log-structured cache that appends small writes
// sequentially into buckets, a B+tree-like index whose updates are journaled
// with a flush command after every journal write (the performance killer the
// paper identifies), a writeback_percent destager, and in-memory-only
// metadata for clean data.
//
// Over a RAID-5 cache volume ("Bcache5") its sequential bucket fills dodge
// most read-modify-write parity work, but the per-journal-write flush
// dominates (paper Figures 1 and 7).
type Bcache struct {
	core
	numBuckets int64

	buckets  []bucket
	free     []int64
	open     int64 // bucket being filled, -1 none
	seqCtr   int64
	index    map[int64]bcacheBlock
	rindex   map[int64]int64 // cache page -> lba
	dirty    []int64         // FIFO of dirty lbas for writeback
	dirtyCnt int64

	commitIssued vtime.Time
	commitDone   vtime.Time

	// pendingOff/pendingLen is the sequential append run not yet submitted
	// to the device (block-layer request merging).
	pendingOff int64
	pendingLen int64
}

// NewBcache builds a Bcache-like cache, write-back (as the paper's benchmarks
// run it) or write-through.
func NewBcache(d Devices, writeBack bool) (*Bcache, error) {
	core, err := newCore(d, bucketBytes, !writeBack)
	if err != nil {
		return nil, err
	}
	if (journalBuckets+2)*bucketBytes > d.Cache.Capacity() {
		return nil, fmt.Errorf("baseline: bcache volume %d leaves no data space after the journal", d.Cache.Capacity())
	}
	numBuckets := d.Cache.Capacity()/bucketBytes - journalBuckets
	c := &Bcache{
		core:         core,
		numBuckets:   numBuckets,
		buckets:      make([]bucket, numBuckets),
		open:         -1,
		index:        make(map[int64]bcacheBlock),
		rindex:       make(map[int64]int64),
		commitIssued: -1,
	}
	for b := numBuckets - 1; b >= 0; b-- {
		c.free = append(c.free, b)
	}
	return c, nil
}

// bucketOff is the byte offset of page p in data bucket b.
func bucketOff(b, p int64) int64 {
	return (journalBuckets+b)*bucketBytes + p*blockdev.PageSize
}

// capacityPages is the data capacity of the cache in pages.
func (c *Bcache) capacityPages() int64 { return c.numBuckets * bucketPages }

// journalWriteCost approximates transmitting one journal block; it is
// charged inside the commit rather than queued on the device link, because
// a real journal block batches many entries and coalesces with the
// in-flight commit.
const journalWriteCost = 20 * vtime.Microsecond

// journalCommit makes a metadata update durable: a journal write followed
// by the flush command — Bcache's durability discipline and the bottleneck
// the paper measures (Tables 2 and 3). Commits are group-committed, as in
// the real implementation: updates that arrive before an already-scheduled
// commit is issued ride along with it; later updates wait for the next one.
func (c *Bcache) journalCommit(at vtime.Time) (vtime.Time, error) {
	if c.commitIssued >= 0 && at <= c.commitIssued.Add(batchWindow) {
		return vtime.Max(at, c.commitDone), nil // joins the committing batch
	}
	issueAt := vtime.Max(at, c.commitDone)
	c.counters.MetadataBytes += blockdev.PageSize
	done, err := c.dev.Cache.Flush(issueAt.Add(journalWriteCost))
	if err != nil {
		return at, err
	}
	c.counters.SSDFlushes++
	c.commitIssued = issueAt
	c.commitDone = done
	return done, nil
}

// flushPending submits the merged sequential append run, if any.
func (c *Bcache) flushPending(at vtime.Time) (vtime.Time, error) {
	if c.pendingLen == 0 {
		return at, nil
	}
	off, n := c.pendingOff, c.pendingLen
	c.pendingOff, c.pendingLen = 0, 0
	return c.dev.Cache.Submit(at, blockdev.Request{Op: blockdev.OpWrite, Off: off, Len: n})
}

// inPending reports whether the cache offset lies in the unsubmitted run.
func (c *Bcache) inPending(off int64) bool {
	return c.pendingLen > 0 && off >= c.pendingOff && off < c.pendingOff+c.pendingLen
}

// appendPage appends one page into the open bucket, reclaiming a bucket
// when none is open. Consecutive appends are merged into device requests of
// up to mergeBytes (block-layer merging), which is what turns the log
// stream into full-stripe writes on parity RAID. It returns the completion
// time.
func (c *Bcache) appendPage(at vtime.Time, lba int64, dirty bool) (vtime.Time, error) {
	ready := at
	if c.open < 0 || c.buckets[c.open].used == bucketPages {
		t, err := c.flushPending(at) // bucket switch breaks the run
		if err != nil {
			return at, err
		}
		ready = t
		c.open = -1
		if len(c.free) == 0 {
			t, err := c.reclaimBucket(ready)
			if err != nil {
				return at, err
			}
			ready = t
		}
		c.open = c.free[len(c.free)-1]
		c.free = c.free[:len(c.free)-1]
		c.buckets[c.open] = bucket{seq: c.seqCtr}
		c.seqCtr++
	}
	b := &c.buckets[c.open]
	off := bucketOff(c.open, b.used)
	b.used++
	b.valid++
	if c.pendingLen > 0 && off == c.pendingOff+c.pendingLen {
		c.pendingLen += blockdev.PageSize
	} else {
		t, err := c.flushPending(ready)
		if err != nil {
			return at, err
		}
		ready = t
		c.pendingOff, c.pendingLen = off, blockdev.PageSize
	}
	done := ready
	if c.pendingLen >= mergeBytes {
		var err error
		done, err = c.flushPending(ready)
		if err != nil {
			return at, err
		}
	}
	// Invalidate any previous copy.
	if old, ok := c.index[lba]; ok {
		c.invalidate(lba, old)
	}
	c.index[lba] = bcacheBlock{off: off, dirty: dirty}
	c.rindex[off/blockdev.PageSize] = lba
	if dirty {
		c.dirtyCnt++
		c.dirty = append(c.dirty, lba)
	}
	return done, nil
}

// invalidate drops a cache copy's accounting.
func (c *Bcache) invalidate(lba int64, bl bcacheBlock) {
	delete(c.rindex, bl.off/blockdev.PageSize)
	c.buckets[bl.off/bucketBytes-journalBuckets].valid--
	if bl.dirty {
		c.dirtyCnt--
	}
	delete(c.index, lba)
}

// reclaimBucket invalidates the least-valuable bucket (fewest live pages,
// oldest first), destaging any dirty residents.
func (c *Bcache) reclaimBucket(at vtime.Time) (vtime.Time, error) {
	victim := int64(-1)
	for b := int64(0); b < c.numBuckets; b++ {
		if b == c.open || c.buckets[b].used == 0 {
			continue
		}
		if victim < 0 ||
			c.buckets[b].valid < c.buckets[victim].valid ||
			(c.buckets[b].valid == c.buckets[victim].valid && c.buckets[b].seq < c.buckets[victim].seq) {
			victim = b
		}
	}
	if victim < 0 {
		return at, fmt.Errorf("baseline: no reclaimable bcache bucket")
	}
	done := at
	for p := int64(0); p < c.buckets[victim].used; p++ {
		off := bucketOff(victim, p)
		lba, ok := c.rindex[off/blockdev.PageSize]
		if !ok {
			continue
		}
		bl := c.index[lba]
		if bl.off != off {
			continue
		}
		if bl.dirty {
			t, err := c.destageBlock(at, lba, bl)
			if err != nil {
				return at, err
			}
			done = vtime.Max(done, t)
			bl.dirty = false
		}
		c.invalidate(lba, bl)
	}
	c.buckets[victim] = bucket{}
	c.free = append(c.free, victim)
	return done, nil
}

// destageBlock writes one dirty block back to primary storage.
func (c *Bcache) destageBlock(at vtime.Time, lba int64, bl bcacheBlock) (vtime.Time, error) {
	if c.inPending(bl.off) {
		t, err := c.flushPending(at)
		if err != nil {
			return at, err
		}
		at = t
	}
	return c.destage(at, bl.off, lba)
}

// writeback enforces writeback_percent: while the dirty fraction exceeds
// it, the oldest dirty blocks are destaged immediately (paper: "Bcache
// destages dirty data immediately when the dirty data ratio exceeds
// writeback_percent"). The work is charged to the devices, off the
// acknowledgement path.
func (c *Bcache) writeback(at vtime.Time) error {
	limit := c.capacityPages() * writebackPercent / 100
	for c.dirtyCnt > limit && len(c.dirty) > 0 {
		lba := c.dirty[0]
		c.dirty = c.dirty[1:]
		bl, ok := c.index[lba]
		if !ok || !bl.dirty {
			continue
		}
		if _, err := c.destageBlock(at, lba, bl); err != nil {
			return err
		}
		bl.dirty = false
		c.index[lba] = bl
		c.dirtyCnt--
	}
	return nil
}

// Submit serves one host request.
func (c *Bcache) Submit(at vtime.Time, req blockdev.Request) (vtime.Time, error) {
	return c.walk(at, req, c.readPage, c.writePage)
}

// writePage lands the page in a bucket, then journals the metadata update
// with a flush (paper: "Bcache first writes dirty data to the cache, and
// then logs metadata into the journal area with a flush command").
// Write-through appends a clean copy; write-back destages above
// writeback_percent.
func (c *Bcache) writePage(at vtime.Time, lba int64) (vtime.Time, error) {
	dataDone, err := c.appendPage(at, lba, !c.writeThrough)
	if err != nil {
		return at, err
	}
	done, err := c.journalCommit(dataDone)
	if err != nil || c.writeThrough {
		return done, err
	}
	return done, c.writeback(done)
}

func (c *Bcache) readPage(at vtime.Time, lba int64) (vtime.Time, error) {
	if bl, ok := c.index[lba]; ok {
		c.counters.ReadHits++
		c.counters.ReadHitBytes += blockdev.PageSize
		if c.inPending(bl.off) {
			return at, nil // still in the merged run: served from memory
		}
		return c.dev.Cache.Submit(at, pageReq(blockdev.OpRead, bl.off))
	}
	// Clean insert: data appended, metadata in memory only (clean data
	// disappears on power failure — paper Table 5).
	done, err := c.fill(at, lba)
	if err != nil {
		return done, err
	}
	_, err = c.appendPage(done, lba, false)
	return done, err
}

// Flush submits any merged run, then journals and flushes — Bcache honours
// flush commands.
func (c *Bcache) Flush(at vtime.Time) (vtime.Time, error) {
	t, err := c.flushPending(at)
	if err != nil {
		return at, err
	}
	return c.journalCommit(t)
}
