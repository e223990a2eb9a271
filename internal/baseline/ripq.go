package baseline

import (
	"fmt"

	"srccache/internal/blockdev"
	"srccache/internal/vtime"
)

// RIPQ settings: K = 8 sections, with misses inserted at section K/2 counted
// from the tail, RIPQ's balanced setting.
const (
	sections      = 8
	insertSection = sections / 2
)

// item is one cached page.
type item struct {
	block int64 // physical block
	slot  int64 // page slot within the block
	vsec  int   // virtual section (promotion target)
}

// RIPQ is a RIPQ-like flash cache (Tang et al., FAST'15 — reference [50] of
// the paper), one of the "advanced flash-based caching schemes" the paper
// plans to compare against SRC (§6).
//
// RIPQ approximates a priority queue on flash while writing only in large,
// erase-group-aligned blocks: the queue is split into K sections, each with
// an active block absorbing insertions at that priority; a read hit
// *virtually* promotes an item (bookkeeping only), and the promotion is
// materialized — the item physically copied to its new section — only when
// the block holding it is evicted from the queue tail. Writes are
// write-through: RIPQ targets read-dominated photo serving and does not
// support write-back (paper Table 5), which is exactly the trade the
// comparison with SRC probes.
type RIPQ struct {
	core
	blockBytes int64
	blockPages int64

	// blocks[b] lists the LBAs appended to block b, in slot order.
	blocks [][]int64
	free   []int64
	// queues[s] is the FIFO of full blocks in section s (index 0 =
	// oldest); actives[s] is the block absorbing section-s insertions.
	queues  [][]int64
	actives []int64

	index map[int64]item
}

// NewRIPQ builds a RIPQ-like cache of blockBytes flash blocks, which should
// be erase-group aligned (RIPQ used 256 MB on real drives).
func NewRIPQ(d Devices, blockBytes int64) (*RIPQ, error) {
	core, err := newCore(d, blockBytes, true)
	if err != nil {
		return nil, err
	}
	numBlocks := d.Cache.Capacity() / blockBytes
	if numBlocks < 2*sections {
		return nil, fmt.Errorf("baseline: %d RIPQ blocks too few for %d sections", numBlocks, sections)
	}
	c := &RIPQ{
		core:       core,
		blockBytes: blockBytes,
		blockPages: blockBytes / blockdev.PageSize,
		blocks:     make([][]int64, numBlocks),
		queues:     make([][]int64, sections),
		actives:    make([]int64, sections),
		index:      make(map[int64]item),
	}
	for b := numBlocks - 1; b >= 0; b-- {
		c.free = append(c.free, b)
	}
	for s := range c.actives {
		c.actives[s] = -1
	}
	return c, nil
}

// blockOff is the device offset of slot p in block b.
func (c *RIPQ) blockOff(b, p int64) int64 {
	return b*c.blockBytes + p*blockdev.PageSize
}

// insert appends one page into section s's active block, evicting from the
// queue tail when no block is free.
func (c *RIPQ) insert(at vtime.Time, lba int64, s int) (vtime.Time, error) {
	ready := at
	if c.actives[s] < 0 || int64(len(c.blocks[c.actives[s]])) == c.blockPages {
		if c.actives[s] >= 0 {
			c.queues[s] = append(c.queues[s], c.actives[s])
			c.actives[s] = -1
		}
		for len(c.free) == 0 {
			t, err := c.evictTail(at)
			if err != nil {
				return at, err
			}
			ready = vtime.Max(ready, t)
		}
		b := c.free[len(c.free)-1]
		c.free = c.free[:len(c.free)-1]
		c.actives[s] = b
	}
	b := c.actives[s]
	slot := int64(len(c.blocks[b]))
	c.blocks[b] = append(c.blocks[b], lba)
	c.index[lba] = item{block: b, slot: slot, vsec: s}
	return c.dev.Cache.Submit(ready, pageReq(blockdev.OpWrite, c.blockOff(b, slot)))
}

// evictTail reclaims the oldest block of the lowest non-empty section,
// materializing virtual promotions: items whose virtual section rose above
// the block's physical section are copied to their target section; the
// rest are evicted.
func (c *RIPQ) evictTail(at vtime.Time) (vtime.Time, error) {
	victim := int64(-1)
	section := -1
	for s := 0; s < sections; s++ {
		if len(c.queues[s]) > 0 {
			victim = c.queues[s][0]
			c.queues[s] = c.queues[s][1:]
			section = s
			break
		}
	}
	if victim < 0 {
		// Only active blocks remain: seal the lowest one and retry once.
		for s := 0; s < sections; s++ {
			if c.actives[s] >= 0 {
				c.queues[s] = append(c.queues[s], c.actives[s])
				c.actives[s] = -1
				return c.evictTail(at)
			}
		}
		return at, fmt.Errorf("baseline: no evictable RIPQ block")
	}

	done := at
	for slot, lba := range c.blocks[victim] {
		it, ok := c.index[lba]
		if !ok || it.block != victim || it.slot != int64(slot) {
			continue // stale: a newer copy exists elsewhere
		}
		if it.vsec > section {
			// Materialize the promotion: read here, reinsert there.
			t, err := c.dev.Cache.Submit(at, pageReq(blockdev.OpRead, c.blockOff(victim, int64(slot))))
			if err != nil {
				return at, err
			}
			delete(c.index, lba)
			t, err = c.insert(t, lba, it.vsec)
			if err != nil {
				return at, err
			}
			c.counters.GCCopyBytes += blockdev.PageSize
			done = vtime.Max(done, t)
			continue
		}
		delete(c.index, lba)
	}
	c.blocks[victim] = c.blocks[victim][:0]
	// Large-block trim keeps the SSD's erase-group accounting aligned —
	// the property RIPQ is built around.
	t, err := c.dev.Cache.Submit(at, blockdev.Request{
		Op: blockdev.OpTrim, Off: victim * c.blockBytes, Len: c.blockBytes,
	})
	if err != nil {
		return at, err
	}
	c.free = append(c.free, victim)
	return vtime.Max(done, t), nil
}

// Submit serves one host request. Writes are write-through: the walk updates
// primary, and refreshPage moves any cached copy in the queue.
func (c *RIPQ) Submit(at vtime.Time, req blockdev.Request) (vtime.Time, error) {
	return c.walk(at, req, c.readPage, c.refreshPage)
}

// refreshPage re-inserts an overwritten cached page at its current virtual
// section; an uncached page is left to primary.
func (c *RIPQ) refreshPage(at vtime.Time, lba int64) (vtime.Time, error) {
	it, ok := c.index[lba]
	if !ok {
		return at, nil
	}
	delete(c.index, lba)
	return c.insert(at, lba, it.vsec)
}

// readPage serves one page: hit from flash with a virtual promotion — RIPQ's
// restricted (lazy) promotion raises the item one section — and miss from
// primary with an insertion at insertSection.
func (c *RIPQ) readPage(at vtime.Time, lba int64) (vtime.Time, error) {
	if it, ok := c.index[lba]; ok {
		c.counters.ReadHits++
		c.counters.ReadHitBytes += blockdev.PageSize
		if it.vsec < sections-1 {
			it.vsec++
			c.index[lba] = it
		}
		return c.dev.Cache.Submit(at, pageReq(blockdev.OpRead, c.blockOff(it.block, it.slot)))
	}
	done, err := c.fill(at, lba)
	if err != nil {
		return done, err
	}
	_, err = c.insert(done, lba, insertSection)
	return done, err
}

// Flush passes through to primary: all dirty data already lives there
// (write-through), so only the backing store's ordering matters.
func (c *RIPQ) Flush(at vtime.Time) (vtime.Time, error) {
	return c.dev.Primary.Flush(at)
}
