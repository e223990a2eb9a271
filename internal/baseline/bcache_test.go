package baseline

import (
	"math/rand"
	"testing"

	"srccache/internal/blockdev"
	"srccache/internal/vtime"
)

// bcacheCap holds the 8 journal buckets and 8 data buckets.
const bcacheCap = 32 << 20

// newBcacheEnv spaces requests past the journal batch window, so each
// write's metadata update is a commit of its own.
func newBcacheEnv(t *testing.T, writeBack bool) *env[*Bcache] {
	t.Helper()
	e := newEnv(t, bcacheCap, func(d Devices) (*Bcache, error) { return NewBcache(d, writeBack) })
	e.gap = batchWindow + 1
	return e
}

func TestBcacheVolumeSize(t *testing.T) {
	prim := blockdev.NewMemDevice(primCap, 0)
	for _, size := range []int64{bcacheCap + blockdev.PageSize, (journalBuckets + 1) * bucketBytes} {
		if _, err := NewBcache(Devices{Cache: blockdev.NewMemDevice(size, 0), Primary: prim}, true); err == nil {
			t.Fatalf("accepted a %d-byte volume", size)
		}
	}
}

func TestEveryWriteJournalsWithFlush(t *testing.T) {
	e := newBcacheEnv(t, true)
	e.submit(blockdev.OpWrite, 5, 1)
	if e.dev.Stats().Flushes != 1 {
		t.Fatalf("flushes %d, Bcache flushes per journal commit", e.dev.Stats().Flushes)
	}
	// Data rides in the merged pending run until mergeBytes accumulate;
	// the journal commit is what hits the device immediately.
	if e.dev.Stats().WriteOps != 0 {
		t.Fatalf("cache data writes %d, expected data still merging", e.dev.Stats().WriteOps)
	}
	// Writes spaced past the batch window each commit separately.
	e.submit(blockdev.OpWrite, 6, 1)
	if e.dev.Stats().Flushes != 2 {
		t.Fatal("second write did not flush")
	}
	if e.cache.Counters().SSDFlushes != 2 {
		t.Fatalf("counters %+v", e.cache.Counters())
	}
}

// flushCostDevice wraps MemDevice with an expensive flush, so commit
// batching is observable.
type flushCostDevice struct {
	*blockdev.MemDevice
	cost vtime.Duration
}

func (d *flushCostDevice) Flush(at vtime.Time) (vtime.Time, error) {
	done, err := d.MemDevice.Flush(at)
	return done.Add(d.cost), err
}

func TestJournalGroupCommitBatchesConcurrentWrites(t *testing.T) {
	dev := &flushCostDevice{
		MemDevice: blockdev.NewMemDevice(bcacheCap, 10*vtime.Microsecond),
		cost:      2 * vtime.Millisecond,
	}
	prim := blockdev.NewMemDevice(primCap, vtime.Millisecond)
	c, err := NewBcache(Devices{Cache: dev, Primary: prim}, true)
	if err != nil {
		t.Fatal(err)
	}
	// First write opens a commit window; writes whose data lands before
	// the window's issue point (the previous commit's completion) share
	// one flush.
	done1, err := c.Submit(0, blockdev.Request{Op: blockdev.OpWrite, Off: 0, Len: blockdev.PageSize})
	if err != nil {
		t.Fatal(err)
	}
	flushesAfterFirst := dev.Stats().Flushes
	for i := int64(2); i < 10; i++ {
		if _, err := c.Submit(0, blockdev.Request{Op: blockdev.OpWrite, Off: i * blockdev.PageSize, Len: blockdev.PageSize}); err != nil {
			t.Fatal(err)
		}
	}
	extra := dev.Stats().Flushes - flushesAfterFirst
	if extra > 2 {
		t.Fatalf("8 concurrent writes issued %d extra flushes, want group commit", extra)
	}
	if done1 < vtime.Time(2*vtime.Millisecond) {
		t.Fatalf("commit done at %v, cheaper than the flush cost", done1)
	}
}

func TestWritesAppendSequentiallyIntoBucket(t *testing.T) {
	e := newBcacheEnv(t, true)
	rng := rand.New(rand.NewSource(1))
	// Random LBAs still land sequentially in the open bucket.
	var offs []int64
	for i := 0; i < 8; i++ {
		lba := rng.Int63n(4096)
		e.submit(blockdev.OpWrite, lba, 1)
		offs = append(offs, e.cache.index[lba].off)
	}
	for i := 1; i < len(offs); i++ {
		if offs[i] != offs[i-1]+blockdev.PageSize {
			t.Fatalf("appends not sequential: %v", offs)
		}
	}
}

func TestOverwriteInvalidatesOldCopy(t *testing.T) {
	e := newBcacheEnv(t, true)
	e.submit(blockdev.OpWrite, 5, 1)
	first := e.cache.index[5].off
	e.submit(blockdev.OpWrite, 5, 1)
	second := e.cache.index[5].off
	if first == second {
		t.Fatal("log-structured cache overwrote in place")
	}
	if e.cache.dirtyCnt != 1 {
		t.Fatalf("dirty pages %d after overwrite", e.cache.dirtyCnt)
	}
}

func TestReadMissInsertsCleanWithoutJournal(t *testing.T) {
	e := newBcacheEnv(t, true)
	flushes := e.dev.Stats().Flushes
	if lat := e.submit(blockdev.OpRead, 9, 1); lat < vtime.Millisecond {
		t.Fatalf("miss latency %v", lat)
	}
	if e.dev.Stats().Flushes != flushes {
		t.Fatal("clean insert journaled")
	}
	if lat := e.submit(blockdev.OpRead, 9, 1); lat >= vtime.Millisecond {
		t.Fatalf("hit latency %v", lat)
	}
	if e.cache.Counters().ReadHits != 1 {
		t.Fatalf("counters %+v", e.cache.Counters())
	}
}

func TestBucketReclaimDestagesDirty(t *testing.T) {
	e := newBcacheEnv(t, true)
	pages := e.cache.capacityPages()
	// Fill the whole cache with dirty data and keep writing: reclaim must
	// destage.
	for lba := int64(0); lba < pages+bucketPages; lba++ {
		e.submit(blockdev.OpWrite, lba, 1)
	}
	if e.cache.Counters().DestageBytes == 0 {
		t.Fatal("reclaim never destaged")
	}
	if e.prim.Stats().WriteOps == 0 {
		t.Fatal("primary saw no destage")
	}
}

func TestWritebackDestagesEagerly(t *testing.T) {
	e := newBcacheEnv(t, true)
	// Distinct pages short of the data capacity: no bucket is reclaimed,
	// so only writeback_percent can destage.
	pages := e.cache.capacityPages() - 8
	for lba := int64(0); lba < pages; lba++ {
		e.submit(blockdev.OpWrite, lba, 1)
	}
	limit := e.cache.capacityPages() * writebackPercent / 100
	if e.cache.dirtyCnt != limit {
		t.Fatalf("dirty pages %d, want the writeback_percent limit %d", e.cache.dirtyCnt, limit)
	}
	if got := e.cache.Counters().DestageBytes; got != (pages-limit)*blockdev.PageSize {
		t.Fatalf("destaged %d bytes, want the %d pages above the limit", got, pages-limit)
	}
}

func TestFlushJournalsAndFlushes(t *testing.T) {
	e := newBcacheEnv(t, true)
	flushes := e.dev.Stats().Flushes
	if _, err := e.cache.Flush(e.at); err != nil {
		t.Fatal(err)
	}
	if e.dev.Stats().Flushes != flushes+1 {
		t.Fatal("Flush did not flush the device")
	}
}

func TestWriteThroughSlower(t *testing.T) {
	run := func(writeBack bool) vtime.Time {
		e := newBcacheEnv(t, writeBack)
		rng := rand.New(rand.NewSource(3))
		for i := 0; i < 300; i++ {
			e.submit(blockdev.OpWrite, rng.Int63n(1024), 1)
		}
		return e.at
	}
	wb, wt := run(true), run(false)
	if !(wt > wb) {
		t.Fatalf("write-through (%v) not slower than write-back (%v)", wt, wb)
	}
}

func TestPendingRunServesReadsFromMemory(t *testing.T) {
	e := newBcacheEnv(t, true)
	e.submit(blockdev.OpWrite, 5, 1)
	reads := e.dev.Stats().ReadOps
	// The data is still in the merged pending run: a read hit costs no
	// device read.
	if lat := e.submit(blockdev.OpRead, 5, 1); lat != 0 {
		t.Fatalf("pending-run read latency %v", lat)
	}
	if e.dev.Stats().ReadOps != reads {
		t.Fatal("pending-run read touched the device")
	}
}
