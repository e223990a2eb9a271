package engine

import (
	"testing"

	"srccache/internal/blockdev"
)

// BenchmarkEngine4K times one 4 KiB request through the Backend methods of
// the engine netblockd builds: two MemShardBuilder shards of 64 MiB with
// 1 MiB stripes (StripePages 256), payload on. Beside src's
// BenchmarkSubmit4K it gives engine dispatch (validate, route, the shard
// lock and the payload copy) a number of its own.
//   - read-hit reads a 4 MiB hot set, written and flushed first, so every
//     read hits.
//   - write walks the volume: it pays the buffer, the payload copy and its
//     share of the dirty seals and reclaims.
func BenchmarkEngine4K(b *testing.B) {
	newEngine := func(b *testing.B) *Engine {
		build, err := MemShardBuilder(ShardSpec{ShardBytes: 64 << 20})
		if err != nil {
			b.Fatal(err)
		}
		e, err := New(Options{Shards: 2, StripePages: 256, Payload: true}, build)
		if err != nil {
			b.Fatal(err)
		}
		return e
	}
	page := make([]byte, blockdev.PageSize)
	call := func(b *testing.B, f func([]byte, int64) error, pg int64) {
		if err := f(page, pg*blockdev.PageSize); err != nil {
			b.Fatal(err)
		}
	}

	b.Run("read-hit", func(b *testing.B) {
		e := newEngine(b)
		const span = 1024 // pages, across both shards
		for pg := int64(0); pg < span; pg++ {
			call(b, e.WriteAt, pg)
		}
		if err := e.Flush(); err != nil {
			b.Fatal(err)
		}
		before, err := e.Counters()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			call(b, e.ReadAt, int64(i)%span)
		}
		b.StopTimer()
		after, err := e.Counters()
		if err != nil {
			b.Fatal(err)
		}
		if n := after.ReadHits - before.ReadHits; n != int64(b.N) {
			b.Fatalf("%d of %d reads hit", n, b.N)
		}
	})
	b.Run("write", func(b *testing.B) {
		e := newEngine(b)
		pages := e.Size() / blockdev.PageSize
		for pg := int64(0); pg < pages; pg++ {
			call(b, e.WriteAt, pg) // the caches fill and reclaim
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			call(b, e.WriteAt, int64(i)%pages)
		}
	})
}
