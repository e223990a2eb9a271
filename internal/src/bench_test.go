package src

import (
	"testing"

	"srccache/internal/blockdev"
	"srccache/internal/vtime"
)

// BenchmarkSubmit4K times one 4 KiB request through Submit on the geometry
// of the benchmark's cache-direct-zipf-4k workload: a 256 MiB primary and
// four zero-latency MemDevices in RAID-5 with 4 MiB erase groups, 64 KiB
// columns and primary/16 of cache each, without content tracking.
//   - hit reads pages sealed on the SSDs: one lookup and one device read.
//   - miss walks the volume, so every read misses: it pays the primary read,
//     the fill and its share of the clean seals and reclaims.
//   - write walks the volume: it pays the buffer and its share of the
//     dirty seals and reclaims.
func BenchmarkSubmit4K(b *testing.B) {
	const (
		primCap = 256 << 20
		pages   = primCap / blockdev.PageSize
		egs     = 4 << 20
	)
	newCache := func(b *testing.B) *Cache {
		ssds := make([]blockdev.Device, 4)
		for i := range ssds {
			ssds[i] = blockdev.NewMemDevice(primCap/16, 0)
		}
		c, err := New(Config{
			SSDs: ssds, Primary: blockdev.NewMemDevice(primCap, 0),
			CachePerSSD: primCap / 16, EraseGroupSize: egs, SegmentColumn: 64 << 10,
		})
		if err != nil {
			b.Fatal(err)
		}
		return c
	}
	var at vtime.Time
	submit := func(b *testing.B, c *Cache, op blockdev.Op, lba int64) {
		done, err := c.Submit(at, blockdev.Request{Op: op, Off: lba * blockdev.PageSize, Len: blockdev.PageSize})
		if err != nil {
			b.Fatal(err)
		}
		at = vtime.Max(at, done)
	}

	b.Run("hit", func(b *testing.B) {
		c := newCache(b)
		const span = 2048 // pages, under one group's payload: no reclaim
		for lba := int64(0); lba < span; lba++ {
			submit(b, c, blockdev.OpWrite, lba)
		}
		if _, err := c.Flush(at); err != nil {
			b.Fatal(err)
		}
		for lba := int64(0); lba < span; lba++ {
			if e, _ := c.mapping.get(lba); !e.state.onSSD() {
				b.Fatalf("page %d in state %v, want on an SSD", lba, e.state)
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			submit(b, c, blockdev.OpRead, int64(i)%span)
		}
	})
	b.Run("miss", func(b *testing.B) {
		c := newCache(b)
		for lba := int64(0); lba < pages; lba++ {
			submit(b, c, blockdev.OpRead, lba) // the cache fills and reclaims
		}
		hits := c.counters.ReadHits
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			submit(b, c, blockdev.OpRead, int64(i)%pages)
		}
		b.StopTimer()
		if n := c.counters.ReadHits - hits; n != 0 {
			b.Fatalf("%d of %d reads hit", n, b.N)
		}
	})
	b.Run("write", func(b *testing.B) {
		c := newCache(b)
		for lba := int64(0); lba < pages; lba++ {
			submit(b, c, blockdev.OpWrite, lba) // the cache fills and reclaims
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			submit(b, c, blockdev.OpWrite, int64(i)%pages)
		}
	})
}
