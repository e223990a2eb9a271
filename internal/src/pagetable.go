package src

import "srccache/internal/blockdev"

// pageTable maps a logical page of the primary volume to where the cache
// holds it. It is a dense array indexed by page number (EnhanceIO's
// array-indexed mapping): the primary's capacity is fixed when the cache is
// assembled, so a lookup is one bounds-checked load with no hashing, and no
// operation allocates after construction. An entry whose state is zero is
// absent. The table is sized by the primary volume and not by the cache
// because the key is a primary page number; at 16 bytes per entry it costs
// 4 MiB per GiB of primary.
//
// Each slot also carries the page's hot bit, the per-page hotness bitmap
// of paper §4.2, in what would otherwise be the entry's padding. The bit
// belongs to the page, not to where the page is cached: set and del keep
// it, so a page re-referenced before an eviction is still hot when it is
// refilled and a later copy round reaches it. Only Sel-GC's reinsert clears
// it (the second chance is consumed), and Recover starts from a fresh table.
type pageTable struct {
	entries []cell
	live    int // entries with a non-zero state
}

// cell is one slot of the table: an entry's fields and the page's hot bit.
// get hands out the entry without the bit because the compiler keeps a
// struct of at most four fields in registers: a five-field entry made every
// lookup on the request path copy its slot through the stack.
type cell struct {
	state pageState
	col   uint8
	hot   bool
	page  uint32
	loc   int64
}

// put stores e in c, leaving the hot bit as it is.
func (c *cell) put(e entry) { c.state, c.col, c.page, c.loc = e.state, e.col, e.page, e.loc }

// primaryPages is the length of the page-indexed tables (the mapping, which
// carries the hot bits, and the content versions).
func primaryPages(cfg Config) int64 { return cfg.Primary.Capacity() / blockdev.PageSize }

func newPageTable(pages int64) pageTable {
	return pageTable{entries: make([]cell, pages)}
}

// covers reports whether lba is a page of the volume the table was sized
// for.
func (t *pageTable) covers(lba int64) bool { return uint64(lba) < uint64(len(t.entries)) }

// get returns lba's entry and whether the page is cached. A page beyond
// the volume is not cached, so the introspection accessors can take any lba.
func (t *pageTable) get(lba int64) (entry, bool) {
	if !t.covers(lba) {
		return entry{}, false
	}
	c := &t.entries[lba]
	return entry{state: c.state, col: c.col, page: c.page, loc: c.loc}, c.state != 0
}

// set maps lba to e, which must carry a non-zero state, and keeps the
// page's hot bit.
func (t *pageTable) set(lba int64, e entry) {
	c := &t.entries[lba]
	if c.state == 0 {
		t.live++
	}
	c.put(e)
}

// del unmaps lba, keeping its hot bit; deleting an absent page is a no-op.
func (t *pageTable) del(lba int64) {
	if c := &t.entries[lba]; c.state != 0 {
		t.live--
		c.put(entry{})
	}
}

// hot reports lba's hot bit, cached or not.
func (t *pageTable) hot(lba int64) bool { return t.entries[lba].hot }

// setHot sets or clears lba's hot bit. It stores only a change, so a hit on
// a page already hot writes nothing.
func (t *pageTable) setHot(lba int64, hot bool) {
	if c := &t.entries[lba]; c.hot != hot {
		c.hot = hot
	}
}

// count reports the number of cached pages.
func (t *pageTable) count() int { return t.live }
