package baseline

import (
	"math/rand"
	"testing"

	"srccache/internal/blockdev"
	"srccache/internal/vtime"
)

// flashcacheCap is four 512-page sets.
const flashcacheCap = 8 << 20

func newFlashcacheEnv(t *testing.T, writeBack bool) *env[*Flashcache] {
	t.Helper()
	return newEnv(t, flashcacheCap, func(d Devices) (*Flashcache, error) { return NewFlashcache(d, writeBack) })
}

// dirtyPages reports the number of dirty cached blocks.
func (c *Flashcache) dirtyPages() int64 {
	var n int64
	for _, d := range c.dirtyCnt {
		n += d
	}
	return n
}

// lbasInSet returns the first n LBAs that hash to set.
func (c *Flashcache) lbasInSet(set, n int64) []int64 {
	var lbas []int64
	for lba := int64(0); int64(len(lbas)) < n; lba++ {
		if c.setOf(lba) == set {
			lbas = append(lbas, lba)
		}
	}
	return lbas
}

func TestFlashcacheVolumeSize(t *testing.T) {
	dev := blockdev.NewMemDevice(3<<20, 0)
	if _, err := NewFlashcache(Devices{Cache: dev, Primary: blockdev.NewMemDevice(primCap, 0)}, true); err == nil {
		t.Fatal("accepted a volume that is not a whole number of sets")
	}
}

func TestWriteBackWriteGoesToCacheOnly(t *testing.T) {
	e := newFlashcacheEnv(t, true)
	e.submit(blockdev.OpWrite, 5, 1)
	if e.prim.Stats().WriteOps != 0 {
		t.Fatal("write-back write touched primary")
	}
	// Data write + metadata write.
	if e.dev.Stats().WriteOps != 2 {
		t.Fatalf("cache writes %d, want data+metadata", e.dev.Stats().WriteOps)
	}
	if e.cache.dirtyPages() != 1 {
		t.Fatalf("dirty pages %d", e.cache.dirtyPages())
	}
}

func TestRewriteOfDirtySkipsMetadata(t *testing.T) {
	e := newFlashcacheEnv(t, true)
	e.submit(blockdev.OpWrite, 5, 1)
	writes := e.dev.Stats().WriteOps
	e.submit(blockdev.OpWrite, 5, 1)
	if e.dev.Stats().WriteOps != writes+1 {
		t.Fatalf("rewrite issued %d cache writes, want 1 (data only)", e.dev.Stats().WriteOps-writes)
	}
}

func TestWriteThroughHitsPrimarySynchronously(t *testing.T) {
	e := newFlashcacheEnv(t, false)
	lat := e.submit(blockdev.OpWrite, 5, 1)
	if lat < vtime.Millisecond {
		t.Fatalf("write-through latency %v did not include primary", lat)
	}
	if e.prim.Stats().WriteOps != 1 {
		t.Fatal("primary not written")
	}
	if e.cache.dirtyPages() != 0 {
		t.Fatal("write-through left dirty data")
	}
}

func TestReadMissFillsReadHitServes(t *testing.T) {
	e := newFlashcacheEnv(t, true)
	if lat := e.submit(blockdev.OpRead, 9, 1); lat < vtime.Millisecond {
		t.Fatalf("miss latency %v", lat)
	}
	if lat := e.submit(blockdev.OpRead, 9, 1); lat >= vtime.Millisecond {
		t.Fatalf("hit latency %v went to primary", lat)
	}
	ctr := e.cache.Counters()
	if ctr.Reads != 2 || ctr.ReadHits != 1 || ctr.FillBytes != blockdev.PageSize {
		t.Fatalf("counters %+v", ctr)
	}
}

func TestEvictionDestagesDirtyVictim(t *testing.T) {
	e := newFlashcacheEnv(t, true)
	// One dirty block, clean fills for the rest of its set, then one more
	// write: the FIFO victim is the dirty block, destaged before reuse.
	lbas := e.cache.lbasInSet(0, setPages+1)
	e.submit(blockdev.OpWrite, lbas[0], 1)
	for _, lba := range lbas[1:setPages] {
		e.submit(blockdev.OpRead, lba, 1)
	}
	if e.prim.Stats().WriteOps != 0 {
		t.Fatal("destaged before the set overflowed")
	}
	e.submit(blockdev.OpWrite, lbas[setPages], 1)
	if e.prim.Stats().WriteOps != 1 || e.cache.Counters().DestageBytes != blockdev.PageSize {
		t.Fatalf("set overflow destaged %d pages to primary (%d bytes counted), want the one dirty victim",
			e.prim.Stats().WriteOps, e.cache.Counters().DestageBytes)
	}
	if _, ok := e.cache.index[lbas[0]]; ok {
		t.Fatal("the victim is still cached")
	}
}

func TestDirtyThresholdDestages(t *testing.T) {
	e := newFlashcacheEnv(t, true)
	// Writes to one set, short of its associativity: no eviction, so only
	// dirty_thresh_pct can destage.
	lbas := e.cache.lbasInSet(1, setPages-8)
	for _, lba := range lbas {
		e.submit(blockdev.OpWrite, lba, 1)
	}
	if e.cache.dirtyCnt[1] > dirtyLimit {
		t.Fatalf("set holds %d dirty pages, above the dirty_thresh_pct limit %d", e.cache.dirtyCnt[1], dirtyLimit)
	}
	if e.cache.Counters().DestageBytes == 0 {
		t.Fatal("a set above dirty_thresh_pct never destaged")
	}
}

func TestFlushIsIgnored(t *testing.T) {
	e := newFlashcacheEnv(t, true)
	e.submit(blockdev.OpWrite, 1, 1)
	done, err := e.cache.Flush(e.at)
	if err != nil {
		t.Fatal(err)
	}
	if done != e.at {
		t.Fatalf("flush took %v, Flashcache ignores flushes", done.Sub(e.at))
	}
	if e.dev.Stats().Flushes != 0 {
		t.Fatal("flush forwarded to device")
	}
}

func TestWriteBackOutperformsWriteThrough(t *testing.T) {
	// The Table 2 relationship, in miniature: random 4K writes are far
	// faster under write-back than write-through.
	run := func(writeBack bool) vtime.Time {
		e := newFlashcacheEnv(t, writeBack)
		rng := rand.New(rand.NewSource(2))
		for i := 0; i < 500; i++ {
			e.submit(blockdev.OpWrite, rng.Int63n(1024), 1)
		}
		return e.at
	}
	wb, wt := run(true), run(false)
	if !(wt > 2*wb) {
		t.Fatalf("write-through (%v) not much slower than write-back (%v)", wt, wb)
	}
}
