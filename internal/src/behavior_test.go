package src

import (
	"math/rand"
	"testing"

	"srccache/internal/blockdev"
	"srccache/internal/vtime"
)

// Additional behavioural coverage of the host-facing request paths.

func TestMultiPageWriteSpansSegments(t *testing.T) {
	e := newEnv(t, nil)
	// One request larger than several segments' payload.
	pages := int64(4 * e.cache.dirtyBuf.Cap())
	e.write(0, pages)
	e.checkInvariants()
	var onSSD, buffered int64
	for _, en := range mapped(e.cache) {
		if en.state == stateSSDDirty {
			onSSD++
		} else if en.state == stateBufDirty {
			buffered++
		}
	}
	if onSSD+buffered != pages {
		t.Fatalf("cached %d of %d pages", onSSD+buffered, pages)
	}
	if onSSD == 0 {
		t.Fatal("large write never reached the SSDs")
	}
}

func TestMultiPageReadMixedHitMiss(t *testing.T) {
	e := newEnv(t, nil)
	// Cache odd pages, leave even pages to primary.
	for lba := int64(1); lba < 32; lba += 2 {
		e.write(lba, 1)
	}
	primReads := e.prim.Stats().ReadOps
	lat := e.read(0, 32)
	if lat < vtime.Millisecond {
		t.Fatalf("mixed read latency %v did not include the misses", lat)
	}
	if e.prim.Stats().ReadOps == primReads {
		t.Fatal("misses not fetched")
	}
	ctr := e.cache.Counters()
	if ctr.ReadHits != 16 {
		t.Fatalf("hits %d, want 16", ctr.ReadHits)
	}
	// Everything is cached now; a re-read stays local.
	if lat := e.read(0, 32); lat >= vtime.Millisecond {
		t.Fatalf("re-read latency %v", lat)
	}
	e.checkInvariants()
}

func TestTrimOfBufferedPages(t *testing.T) {
	e := newEnv(t, nil)
	e.write(10, 2) // buffered dirty
	e.read(40, 1)  // buffered clean
	if _, err := e.cache.Submit(e.at, blockdev.Request{
		Op: blockdev.OpTrim, Off: 10 * blockdev.PageSize, Len: 2 * blockdev.PageSize,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.cache.Submit(e.at, blockdev.Request{
		Op: blockdev.OpTrim, Off: 40 * blockdev.PageSize, Len: blockdev.PageSize,
	}); err != nil {
		t.Fatal(err)
	}
	if e.cache.mapping.count() != 0 {
		t.Fatalf("%d pages still mapped after trims", e.cache.mapping.count())
	}
	if e.cache.dirtyBuf.Live() != 0 || e.cache.cleanBuf.Live() != 0 {
		t.Fatal("buffer slots not invalidated by trim")
	}
	e.checkInvariants()
}

func TestSingleSSDRAID0Cache(t *testing.T) {
	// The paper's NVMe configuration: one drive, no parity.
	dev := blockdev.NewFaultPlan(blockdev.NewMemDevice(testSSDCap, 10*vtime.Microsecond))
	prim := blockdev.NewMemDevice(testPrimCap, vtime.Millisecond)
	c, err := New(Config{
		SSDs:           []blockdev.Device{dev},
		Primary:        prim,
		EraseGroupSize: testEGS,
		SegmentColumn:  testSegCol,
		Level:          RAID0,
		TrackContent:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	var at vtime.Time
	rng := rand.New(rand.NewSource(41))
	for i := 0; i < 8000; i++ {
		lba := rng.Int63n(4000)
		done, err := c.Submit(at, blockdev.Request{Op: blockdev.OpWrite, Off: lba * blockdev.PageSize, Len: blockdev.PageSize})
		if err != nil {
			t.Fatal(err)
		}
		at = vtime.Max(at, done)
	}
	if c.Counters().ParityBytes != 0 {
		t.Fatalf("single-drive RAID-0 wrote %d parity bytes", c.Counters().ParityBytes)
	}
	if c.Counters().DestageBytes == 0 && c.Counters().GCCopyBytes == 0 {
		t.Fatal("single-drive cache never garbage collected")
	}
}

func TestCachePerSSDSubset(t *testing.T) {
	// Use only half of each device as cache region.
	e := newEnv(t, func(c *Config) { c.CachePerSSD = testSSDCap / 2 })
	if n := e.cache.State(nil).Groups; n != int(testSSDCap/2/testEGS) {
		t.Fatalf("groups %d", n)
	}
	for lba := int64(0); lba < 500; lba++ {
		e.write(lba, 1)
	}
	e.checkInvariants()
	// No device write may land past the region (the superblock and data
	// all live inside it).
	for i, d := range e.ssds {
		if got := d.Stats().WriteBytes; got == 0 {
			t.Fatalf("ssd %d idle", i)
		}
	}
}

func TestCountersCoherence(t *testing.T) {
	e := newEnv(t, nil)
	rng := rand.New(rand.NewSource(43))
	var wantReads, wantWrites, wantReadBytes, wantWriteBytes int64
	for i := 0; i < 3000; i++ {
		lba := rng.Int63n(3000)
		n := 1 + rng.Int63n(4)
		if rng.Float64() < 0.5 {
			e.write(lba, n)
			wantWrites += n
			wantWriteBytes += n * blockdev.PageSize
		} else {
			e.read(lba, n)
			wantReads += n
			wantReadBytes += n * blockdev.PageSize
		}
	}
	ctr := e.cache.Counters()
	if ctr.Reads != wantReads || ctr.Writes != wantWrites ||
		ctr.ReadBytes != wantReadBytes || ctr.WriteBytes != wantWriteBytes {
		t.Fatalf("counters %+v, want r=%d w=%d rb=%d wb=%d",
			ctr, wantReads, wantWrites, wantReadBytes, wantWriteBytes)
	}
	if ctr.ReadHits > ctr.Reads {
		t.Fatal("more hits than reads")
	}
	if ctr.ReadHitBytes != ctr.ReadHits*blockdev.PageSize {
		t.Fatal("hit bytes inconsistent with hit count")
	}
}

func TestHotBitSecondChance(t *testing.T) {
	e := newEnv(t, nil)
	e.write(5, 1)
	if e.cache.mapping.hot(5) {
		t.Fatal("first write marked hot")
	}
	e.read(5, 1)
	if !e.cache.mapping.hot(5) {
		t.Fatal("read hit did not mark hot")
	}
	e.write(5, 1)
	if !e.cache.mapping.hot(5) {
		t.Fatal("rewrite cleared hotness")
	}
}

func TestWastedSlotsAccounting(t *testing.T) {
	e := newEnv(t, nil)
	e.write(1, 1)
	if _, err := e.cache.Flush(e.at); err != nil {
		t.Fatal(err)
	}
	want := int64(e.cache.dirtyBuf.Cap() - 1)
	if n := e.cache.State(nil).WastedSlots; n != want {
		t.Fatalf("wasted %d slots, want %d (partial segment padding)", n, want)
	}
}

func TestStringDescribesConfig(t *testing.T) {
	e := newEnv(t, nil)
	s := e.cache.String()
	for _, want := range []string{"4 ssds", "RAID-5", "Sel-GC", "NPC"} {
		if !containsStr(s, want) {
			t.Fatalf("String() = %q missing %q", s, want)
		}
	}
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
