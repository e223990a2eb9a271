package baseline

import (
	"math/rand"
	"testing"

	"srccache/internal/blockdev"
	"srccache/internal/vtime"
)

const (
	ripqCap        = 16 << 20
	ripqBlockBytes = 1 << 20
	ripqPages      = ripqCap / blockdev.PageSize
	ripqBlockPages = ripqBlockBytes / blockdev.PageSize
)

func newRIPQEnv(t *testing.T) *env[*RIPQ] {
	t.Helper()
	return newEnv(t, ripqCap, func(d Devices) (*RIPQ, error) { return NewRIPQ(d, ripqBlockBytes) })
}

func TestRIPQBlockSize(t *testing.T) {
	dev := blockdev.NewMemDevice(ripqCap, 0)
	prim := blockdev.NewMemDevice(primCap, 0)
	for _, block := range []int64{100, ripqCap} { // unaligned; too few blocks for the sections
		if _, err := NewRIPQ(Devices{Cache: dev, Primary: prim}, block); err == nil {
			t.Fatalf("accepted %d-byte blocks", block)
		}
	}
}

func TestMissFillsThenHits(t *testing.T) {
	e := newRIPQEnv(t)
	if lat := e.submit(blockdev.OpRead, 7, 1); lat < vtime.Millisecond {
		t.Fatalf("miss latency %v", lat)
	}
	if lat := e.submit(blockdev.OpRead, 7, 1); lat >= vtime.Millisecond {
		t.Fatalf("hit latency %v", lat)
	}
	ctr := e.cache.Counters()
	if ctr.Reads != 2 || ctr.ReadHits != 1 {
		t.Fatalf("counters %+v", ctr)
	}
}

func TestWriteThroughUpdatesPrimary(t *testing.T) {
	e := newRIPQEnv(t)
	if lat := e.submit(blockdev.OpWrite, 3, 1); lat < vtime.Millisecond {
		t.Fatalf("write-through latency %v did not include primary", lat)
	}
	if e.prim.Stats().WriteOps != 1 {
		t.Fatal("primary not written")
	}
	// The flush has nothing cache-side to do.
	if _, err := e.cache.Flush(e.at); err != nil {
		t.Fatal(err)
	}
}

func TestInsertionsAreSequentialWithinBlock(t *testing.T) {
	e := newRIPQEnv(t)
	var offs []int64
	for lba := int64(0); lba < 8; lba++ {
		e.submit(blockdev.OpRead, lba, 1) // misses insert at one section
		it := e.cache.index[lba]
		offs = append(offs, e.cache.blockOff(it.block, it.slot))
	}
	for i := 1; i < len(offs); i++ {
		if offs[i] != offs[i-1]+blockdev.PageSize {
			t.Fatalf("insertions not sequential: %v", offs)
		}
	}
}

func TestEvictionPrefersLowSections(t *testing.T) {
	e := newRIPQEnv(t)
	// Fill the cache well past capacity with misses: evictions must occur
	// and the cache must stay at capacity.
	for lba := int64(0); lba < 2*ripqPages; lba++ {
		e.submit(blockdev.OpRead, lba, 1)
	}
	if int64(len(e.cache.index)) > ripqPages {
		t.Fatalf("resident %d pages exceeds capacity %d", len(e.cache.index), ripqPages)
	}
	if len(e.cache.free) != 0 && len(e.cache.index) == 0 {
		t.Fatal("nothing cached after fill")
	}
}

func TestPromotionProtectsHotData(t *testing.T) {
	e := newRIPQEnv(t)
	// A small hot set read repeatedly while a cold scan churns the cache.
	hot := int64(64)
	rng := rand.New(rand.NewSource(1))
	for i := int64(0); i < 4*ripqPages; i++ {
		if rng.Float64() < 0.3 {
			e.submit(blockdev.OpRead, rng.Int63n(hot), 1)
		} else {
			e.submit(blockdev.OpRead, hot+i%(3*ripqPages), 1)
		}
	}
	// Most of the hot set must have survived the scan.
	resident := 0
	for lba := int64(0); lba < hot; lba++ {
		if _, ok := e.cache.index[lba]; ok {
			resident++
		}
	}
	if resident < int(hot)/2 {
		t.Fatalf("only %d of %d hot pages survived the scan", resident, hot)
	}
	if e.cache.Counters().GCCopyBytes == 0 {
		t.Fatal("promotions never materialized")
	}
}

func TestOverwriteRefreshesCachedCopy(t *testing.T) {
	e := newRIPQEnv(t)
	e.submit(blockdev.OpRead, 5, 1)
	first := e.cache.index[5]
	e.submit(blockdev.OpWrite, 5, 1)
	second, ok := e.cache.index[5]
	if !ok {
		t.Fatal("overwrite dropped the cached copy")
	}
	if first == second {
		t.Fatal("overwrite did not relocate the log-structured copy")
	}
}

func TestEvictionTrimsWholeBlocks(t *testing.T) {
	e := newRIPQEnv(t)
	for lba := int64(0); lba < ripqPages+ripqBlockPages; lba++ {
		e.submit(blockdev.OpRead, lba, 1)
	}
	if e.dev.Stats().TrimOps == 0 {
		t.Fatal("eviction never trimmed")
	}
	if e.dev.Stats().TrimBytes%ripqBlockBytes != 0 {
		t.Fatalf("trim bytes %d not block-aligned", e.dev.Stats().TrimBytes)
	}
}

func TestPromotionSaturatesAtTheTopSection(t *testing.T) {
	e := newRIPQEnv(t)
	e.submit(blockdev.OpRead, 1, 1)
	if it := e.cache.index[1]; it.vsec != insertSection {
		t.Fatalf("miss inserted at section %d, want %d", it.vsec, insertSection)
	}
	// Each hit promotes one section, up to the top and no further.
	for hit := 1; hit <= sections; hit++ {
		e.submit(blockdev.OpRead, 1, 1)
		if want := min(insertSection+hit, sections-1); e.cache.index[1].vsec != want {
			t.Fatalf("after %d hits at section %d, want %d", hit, e.cache.index[1].vsec, want)
		}
	}
}
