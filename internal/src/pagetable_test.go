package src

import (
	"testing"
	"unsafe"

	"srccache/internal/blockdev"
)

// TestEntryIs16Bytes pins the page-table entry's width: the table costs 16
// bytes per primary page, and the memory figures assume it.
func TestEntryIs16Bytes(t *testing.T) {
	if n := unsafe.Sizeof(entry{}); n != 16 {
		t.Fatalf("entry is %d bytes, want 16", n)
	}
}

func TestPageTable(t *testing.T) {
	pt := newPageTable(8)
	if _, ok := pt.get(3); ok || pt.count() != 0 {
		t.Fatal("fresh table is not empty")
	}
	pt.set(3, entry{state: stateBufDirty, loc: 7})
	pt.set(5, entry{state: stateSSDClean, loc: 0}) // loc 0 is a real location: presence is the state
	if e, ok := pt.get(5); !ok || e.state != stateSSDClean || e.loc != 0 {
		t.Fatalf("get(5) = %+v, %v", e, ok)
	}
	if pt.count() != 2 {
		t.Fatalf("count %d after two sets", pt.count())
	}
	// Overwriting keeps the count.
	pt.set(3, entry{state: stateSSDDirty, loc: 42})
	if e, _ := pt.get(3); e.state != stateSSDDirty || e.loc != 42 || pt.count() != 2 {
		t.Fatalf("overwrite: get(3) = %+v, count %d", e, pt.count())
	}
	// Deleting an absent page, twice over, changes nothing.
	pt.del(4)
	pt.del(3)
	pt.del(3)
	if _, ok := pt.get(3); ok || pt.count() != 1 {
		t.Fatalf("after del: present %v, count %d", ok, pt.count())
	}
	// Pages beyond the volume are simply not cached.
	for _, lba := range []int64{-1, 8, 1 << 40} {
		if _, ok := pt.get(lba); ok {
			t.Fatalf("get(%d) reports a page outside the table", lba)
		}
	}
}

// TestPageTableCountAcrossRecover: Recover rebuilds the table through
// newPageTable; after it the live count must equal the entries actually
// present (checkInvariants scans them) and the flushed pages must still be
// there.
func TestPageTableCountAcrossRecover(t *testing.T) {
	e := newEnv(t, nil)
	c := e.cache
	pages := 5 * int64(c.dirtyBuf.Cap())
	for lba := int64(0); lba < pages; lba++ {
		e.write(lba, 1)
	}
	if _, err := c.Flush(e.at); err != nil {
		t.Fatal(err)
	}
	e.read(1000, 3) // clean fills, still buffered: lost by the crash
	if got := int64(c.State(nil).CachedPages); got != pages+3 {
		t.Fatalf("CachedPages %d, want %d", got, pages+3)
	}
	for _, d := range e.ssds {
		d.Content().Crash()
	}
	if _, err := c.Recover(); err != nil {
		t.Fatal(err)
	}
	e.checkInvariants()
	if got := int64(c.State(nil).CachedPages); got != pages {
		t.Fatalf("CachedPages %d after recovery, want the %d flushed pages", got, pages)
	}
	for lba := int64(0); lba < pages; lba++ {
		if !cachedDirty(c, lba) {
			t.Fatalf("lba %d lost by recovery", lba)
		}
	}
}

// TestSubmitSteadyStateAllocatesNothing gates the hot path: a 4 KiB read
// that hits and a 4 KiB rewrite of a page still in the dirty buffer go
// through Submit without allocating. The map-backed table grew buckets on
// the way; the page-indexed one has nothing to grow.
func TestSubmitSteadyStateAllocatesNothing(t *testing.T) {
	e := newEnv(t, func(c *Config) { c.TrackContent = false })
	c := e.cache
	for lba := int64(0); lba < 4*int64(c.dirtyBuf.Cap()); lba++ {
		e.write(lba, 1) // on SSD
	}
	e.write(900, 1) // buffered dirty
	if en, _ := c.mapping.get(0); en.state != stateSSDDirty {
		t.Fatalf("page 0 in state %v, want on SSD", en.state)
	}
	if en, _ := c.mapping.get(900); en.state != stateBufDirty {
		t.Fatalf("page 900 in state %v, want buffered dirty", en.state)
	}
	submit := func(op blockdev.Op, lba int64) func() {
		req := blockdev.Request{Op: op, Off: lba * blockdev.PageSize, Len: blockdev.PageSize}
		return func() {
			if _, err := c.Submit(e.at, req); err != nil {
				t.Fatal(err)
			}
		}
	}
	hits := c.Counters().ReadHits
	if n := testing.AllocsPerRun(200, submit(blockdev.OpRead, 0)); n != 0 {
		t.Errorf("SSD hit read: %v allocs per Submit, want 0", n)
	}
	if n := testing.AllocsPerRun(200, submit(blockdev.OpRead, 900)); n != 0 {
		t.Errorf("buffered hit read: %v allocs per Submit, want 0", n)
	}
	if n := testing.AllocsPerRun(200, submit(blockdev.OpWrite, 900)); n != 0 {
		t.Errorf("buffered rewrite: %v allocs per Submit, want 0", n)
	}
	if got := c.Counters().ReadHits - hits; got != 2*201 {
		t.Fatalf("%d read hits, want %d: the reads were not steady-state hits", got, 2*201)
	}
	if en, _ := c.mapping.get(900); en.state != stateBufDirty {
		t.Fatalf("rewrites moved page 900 to state %v", en.state)
	}
}

// TestSegmentSealAllocations pins what sealing a segment costs. Each run
// writes Cap() fresh pages, so the last write fills the dirty buffer and
// seals exactly one segment. The slot snapshot, the per-column summary
// slices and the column lists are the cache's reused scratch, so a seal
// allocates nothing; a slice literal or an unsized append on the seal path
// shows up here.
func TestSegmentSealAllocations(t *testing.T) {
	const maxAllocs = 0
	e := newEnv(t, func(c *Config) { c.TrackContent = false })
	c := e.cache
	lba := int64(0)
	seal := func() {
		for i := 0; i < c.dirtyBuf.Cap(); i++ {
			req := blockdev.Request{Op: blockdev.OpWrite, Off: lba * blockdev.PageSize, Len: blockdev.PageSize}
			if _, err := c.Submit(e.at, req); err != nil {
				t.Fatal(err)
			}
			lba++
		}
	}
	const runs = 100
	gen := c.segGen
	n := testing.AllocsPerRun(runs, seal)
	if sealed := c.segGen - gen; sealed != runs+1 {
		t.Fatalf("%d segments sealed in %d runs, want one per run", sealed, runs+1)
	}
	if n > maxAllocs {
		t.Errorf("sealing a segment: %v allocs, want <= %d", n, maxAllocs)
	}
}
