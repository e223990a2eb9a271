package baseline

import (
	"srccache/internal/blockdev"
	"srccache/internal/vtime"
)

// Flashcache settings: 2 MiB sets (Flashcache's default), and the
// dirty_thresh_pct the paper raises from Flashcache's 20 to 90.
const (
	setBytes = 2 << 20
	setPages = setBytes / blockdev.PageSize
	// dirtyLimit is dirty_thresh_pct (90) of a set's pages: a set holding
	// more dirty pages destages down to it.
	dirtyLimit = setPages * 90 / 100
)

// slot is one cache block.
type slot struct {
	lba   int64 // -1 when free
	dirty bool
}

// Flashcache reproduces the behaviours of Facebook's Flashcache that the
// paper measures (Section 3.1): a set-associative block cache of 4 KB
// blocks, per-dirty-block metadata writes to the SSD, in-memory-only
// metadata for clean data, a dirty_thresh_pct background destager, and —
// crucially — flush commands from the upper layer are always ignored and
// acknowledged immediately.
//
// Over a RAID-5 cache volume ("Flashcache5") its random 4 KB in-place writes
// suffer the read-modify-write small-write penalty the paper demonstrates in
// Figure 1.
type Flashcache struct {
	core
	numSets  int64
	slots    []slot
	fifoPtr  []int64 // per-set replacement cursor (Flashcache's FIFO)
	dirtyCnt []int64 // per-set dirty slots
	index    map[int64]int64
}

// NewFlashcache builds a Flashcache-like cache, write-back (as the paper
// benchmarks it) or write-through (Flashcache's recommended default).
func NewFlashcache(d Devices, writeBack bool) (*Flashcache, error) {
	core, err := newCore(d, setBytes, !writeBack)
	if err != nil {
		return nil, err
	}
	numSets := d.Cache.Capacity() / setBytes
	c := &Flashcache{
		core:     core,
		numSets:  numSets,
		slots:    make([]slot, setPages*numSets),
		fifoPtr:  make([]int64, numSets),
		dirtyCnt: make([]int64, numSets),
		index:    make(map[int64]int64),
	}
	for i := range c.slots {
		c.slots[i].lba = -1
	}
	return c, nil
}

// setOf hashes an LBA to its set.
func (c *Flashcache) setOf(lba int64) int64 {
	x := uint64(lba) * 0x9e3779b97f4a7c15
	x ^= x >> 29
	return int64(x % uint64(c.numSets))
}

// slotOff is the byte offset of slot i on the cache volume.
func slotOff(i int64) int64 { return i * blockdev.PageSize }

// metadataWrite charges one 4 KB metadata block write (Flashcache persists
// metadata for dirty blocks only). Metadata blocks live in a separate
// partition; it is modelled at the set's start offset region.
func (c *Flashcache) metadataWrite(at vtime.Time, set int64) (vtime.Time, error) {
	done, err := c.dev.Cache.Submit(at, pageReq(blockdev.OpWrite, set*blockdev.PageSize%c.dev.Cache.Capacity()))
	if err != nil {
		return at, err
	}
	c.counters.MetadataBytes += blockdev.PageSize
	return done, nil
}

// allocSlot picks the replacement victim in a set, destaging it first if
// dirty. It returns the slot index and the time the slot became free.
func (c *Flashcache) allocSlot(at vtime.Time, set int64) (int64, vtime.Time, error) {
	base := set * setPages
	// Prefer a free slot.
	for i := base; i < base+setPages; i++ {
		if c.slots[i].lba < 0 {
			return i, at, nil
		}
	}
	// FIFO replacement within the set.
	i := base + c.fifoPtr[set]
	c.fifoPtr[set] = (c.fifoPtr[set] + 1) % setPages
	ready := at
	if c.slots[i].dirty {
		t, err := c.destageSlot(at, i)
		if err != nil {
			return 0, at, err
		}
		ready = t
	}
	delete(c.index, c.slots[i].lba)
	c.slots[i] = slot{lba: -1}
	return i, ready, nil
}

// destageSlot writes one dirty block back to primary storage.
func (c *Flashcache) destageSlot(at vtime.Time, i int64) (vtime.Time, error) {
	done, err := c.destage(at, slotOff(i), c.slots[i].lba)
	if err != nil {
		return at, err
	}
	c.slots[i].dirty = false
	c.dirtyCnt[i/setPages]--
	return done, nil
}

// backgroundDestage enforces dirty_thresh_pct: sets above the threshold are
// destaged down to it. The work is charged to the devices but not to the
// acknowledgement path (Flashcache destages from a background thread).
func (c *Flashcache) backgroundDestage(at vtime.Time, set int64) error {
	base := set * setPages
	for i := base; i < base+setPages && c.dirtyCnt[set] > dirtyLimit; i++ {
		if c.slots[i].dirty {
			if _, err := c.destageSlot(at, i); err != nil {
				return err
			}
		}
	}
	return nil
}

// Submit serves one host request.
func (c *Flashcache) Submit(at vtime.Time, req blockdev.Request) (vtime.Time, error) {
	return c.walk(at, req, c.readPage, c.writePage)
}

func (c *Flashcache) writePage(at vtime.Time, lba int64) (vtime.Time, error) {
	set := c.setOf(lba)
	i, hit := c.index[lba]
	ready := at
	if !hit {
		var err error
		if i, ready, err = c.allocSlot(at, set); err != nil {
			return at, err
		}
	}
	done, err := c.dev.Cache.Submit(ready, pageReq(blockdev.OpWrite, slotOff(i)))
	if err != nil {
		return at, err
	}
	wasDirty := hit && c.slots[i].dirty
	if c.writeThrough {
		if wasDirty {
			c.dirtyCnt[set]--
		}
		c.slots[i] = slot{lba: lba}
		c.index[lba] = i
		return done, nil
	}
	if !wasDirty {
		// New dirty block: its metadata must be persisted.
		mdDone, err := c.metadataWrite(ready, set)
		if err != nil {
			return at, err
		}
		done = vtime.Max(done, mdDone)
		c.dirtyCnt[set]++
	}
	c.slots[i] = slot{lba: lba, dirty: true}
	c.index[lba] = i
	return done, c.backgroundDestage(done, set)
}

func (c *Flashcache) readPage(at vtime.Time, lba int64) (vtime.Time, error) {
	if i, ok := c.index[lba]; ok {
		c.counters.ReadHits++
		c.counters.ReadHitBytes += blockdev.PageSize
		return c.dev.Cache.Submit(at, pageReq(blockdev.OpRead, slotOff(i)))
	}
	done, err := c.fill(at, lba)
	if err != nil {
		return done, err
	}
	// Insert as clean: data write to cache, metadata stays in memory only
	// (clean data is lost on power failure — paper Table 5).
	i, ready, err := c.allocSlot(done, c.setOf(lba))
	if err != nil {
		return done, err
	}
	if _, err := c.dev.Cache.Submit(ready, pageReq(blockdev.OpWrite, slotOff(i))); err != nil {
		return done, err
	}
	c.slots[i] = slot{lba: lba}
	c.index[lba] = i
	return done, nil
}

// Flush ignores the flush command and acknowledges immediately —
// Flashcache's documented behaviour ("always ignores flush commands from
// the upper layer ... vulnerable to file system inconsistency").
func (c *Flashcache) Flush(at vtime.Time) (vtime.Time, error) {
	return at, nil
}
