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
type pageTable struct {
	entries []entry
	live    int // entries with a non-zero state
}

// primaryPages is the length of the page-indexed tables (mapping, versions,
// hot bitmap).
func primaryPages(cfg Config) int64 { return cfg.Primary.Capacity() / blockdev.PageSize }

func newPageTable(pages int64) pageTable {
	return pageTable{entries: make([]entry, pages)}
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
	e := t.entries[lba]
	return e, e.state != 0
}

// set maps lba to e, which must carry a non-zero state.
func (t *pageTable) set(lba int64, e entry) {
	if t.entries[lba].state == 0 {
		t.live++
	}
	t.entries[lba] = e
}

// del unmaps lba; deleting an absent page is a no-op.
func (t *pageTable) del(lba int64) {
	if t.entries[lba].state != 0 {
		t.live--
		t.entries[lba] = entry{}
	}
}

// count reports the number of cached pages.
func (t *pageTable) count() int { return t.live }
