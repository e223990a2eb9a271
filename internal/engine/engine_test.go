package engine

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"srccache/internal/blockdev"
	"srccache/internal/vtime"
	"srccache/internal/workload"
)

// testEngine builds a small payload engine: shards × 8 MiB primaries,
// 1 MiB erase groups, 64 pages per stripe so requests cross shard
// boundaries often.
func testEngine(t *testing.T, shards int, payload bool) *Engine {
	t.Helper()
	build, err := MemShardBuilder(ShardSpec{
		ShardBytes:     8 << 20,
		EraseGroupSize: 1 << 20,
		SegmentColumn:  32 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(Options{Shards: shards, StripePages: 64, Payload: payload}, build)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestRouteIsABijection(t *testing.T) {
	e := testEngine(t, 4, false)
	seen := make(map[[2]int64]int64)
	// Walk every stripe boundary page and some interior pages.
	for off := int64(0); off < e.Size(); off += e.stripeBytes / 2 {
		sh, local := e.route(off)
		if local < 0 || local >= e.shardBytes {
			t.Fatalf("off %d → shard %d local %d outside shard of %d bytes", off, sh, local, e.shardBytes)
		}
		key := [2]int64{int64(sh), local}
		if prev, dup := seen[key]; dup {
			t.Fatalf("offsets %d and %d both map to shard %d local %d", prev, off, sh, local)
		}
		seen[key] = off
	}
}

func TestSerialIsDeterministic(t *testing.T) {
	run := func() ([]vtime.Time, int64) {
		e := testEngine(t, 4, false)
		s := e.Serial()
		g, err := workload.NewGenerator(workload.Config{
			Pattern: workload.Zipf, Span: e.Size(), ReadFraction: 0.5, Seed: 7,
		})
		if err != nil {
			t.Fatal(err)
		}
		var times []vtime.Time
		at := vtime.Time(0)
		for i := 0; i < 5000; i++ {
			req, _ := g.Next()
			done, err := s.Submit(at, req)
			if err != nil {
				t.Fatal(err)
			}
			times = append(times, done)
			at = vtime.Max(at, done)
		}
		c, err := e.Counters()
		if err != nil {
			t.Fatal(err)
		}
		return times, c.ReadHits
	}
	t1, h1 := run()
	t2, h2 := run()
	if h1 != h2 {
		t.Fatalf("hit counts differ: %d vs %d", h1, h2)
	}
	for i := range t1 {
		if t1[i] != t2[i] {
			t.Fatalf("completion %d differs: %v vs %v", i, t1[i], t2[i])
		}
	}
}

// TestConcurrentMatchesSerial drives the same single-client request stream
// through a serial engine and, one ReadAt or WriteAt per request with the
// client's buffer, a started engine. Neither carries payload. A
// single submitter preserves per-shard op order, and shards share nothing,
// so every shard's counters — hits, misses, fills, destages — must match
// exactly.
func TestConcurrentMatchesSerial(t *testing.T) {
	const shards = 4
	stream := func() []blockdev.Request {
		g, err := workload.NewGenerator(workload.Config{
			Pattern: workload.Zipf, Span: 8 << 20 * shards, ReadFraction: 0.4,
			RequestBytes: 8192, Seed: 11,
		})
		if err != nil {
			t.Fatal(err)
		}
		reqs := make([]blockdev.Request, 20000)
		for i := range reqs {
			reqs[i], _ = g.Next()
		}
		return reqs
	}()

	serialEng := testEngine(t, shards, false)
	ser := serialEng.Serial()
	for _, r := range stream {
		if _, err := ser.Submit(0, r); err != nil {
			t.Fatal(err)
		}
	}
	if err := serialEng.Flush(); err != nil {
		t.Fatal(err)
	}

	conc := testEngine(t, shards, false)
	if err := conc.Start(); err != nil {
		t.Fatal(err)
	}
	defer conc.Close()
	buf := make([]byte, 8192)
	for _, r := range stream {
		p := buf[:r.Len]
		var err error
		switch r.Op {
		case blockdev.OpRead:
			err = conc.ReadAt(p, r.Off)
		case blockdev.OpWrite:
			err = conc.WriteAt(p, r.Off)
		default:
			t.Fatalf("stream op %v", r.Op)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := conc.Flush(); err != nil {
		t.Fatal(err)
	}

	want, err := serialEng.Counters()
	if err != nil {
		t.Fatal(err)
	}
	got, err := conc.Counters()
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("concurrent counters diverge from serial:\n got %+v\nwant %+v", got, want)
	}
}

// TestPayloadIntegrity checks the sharded byte store against a flat
// reference model across stripe-crossing, unaligned, and trimmed ranges.
func TestPayloadIntegrity(t *testing.T) {
	e := testEngine(t, 4, true)
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	ref := make([]byte, e.Size())
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 600; i++ {
		off := rng.Int63n(e.Size() - 1)
		n := 1 + rng.Int63n(min64(600<<10, e.Size()-off)-1+1)
		switch rng.Intn(3) {
		case 0:
			p := make([]byte, n)
			rng.Read(p)
			if err := e.WriteAt(p, off); err != nil {
				t.Fatalf("write [%d,%d): %v", off, off+n, err)
			}
			copy(ref[off:off+n], p)
		case 1:
			if err := e.Trim(off, n); err != nil {
				t.Fatalf("trim [%d,%d): %v", off, off+n, err)
			}
			for j := off; j < off+n; j++ {
				ref[j] = 0
			}
		default:
			p := make([]byte, n)
			if err := e.ReadAt(p, off); err != nil {
				t.Fatalf("read [%d,%d): %v", off, off+n, err)
			}
			if !bytes.Equal(p, ref[off:off+n]) {
				t.Fatalf("read [%d,%d) diverges from reference", off, off+n)
			}
		}
	}
	// Full-volume readback.
	got := make([]byte, e.Size())
	if err := e.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, ref) {
		t.Fatal("full volume diverges from reference")
	}
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func TestValidation(t *testing.T) {
	e := testEngine(t, 2, false)
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	cases := []blockdev.Request{
		{Op: blockdev.OpRead, Off: -1, Len: 8},
		{Op: blockdev.OpRead, Off: 0, Len: 0},
		{Op: blockdev.OpRead, Off: e.Size(), Len: 1},
		{Op: blockdev.OpRead, Off: e.Size() - 4, Len: 8},
		{Op: blockdev.Op(9), Off: 0, Len: 8},
	}
	for _, req := range cases {
		if _, err := e.Serial().Submit(0, req); err == nil {
			t.Fatalf("Serial accepted %+v", req)
		}
		if req.Op == blockdev.OpRead && e.ReadAt(make([]byte, req.Len), req.Off) == nil {
			t.Fatalf("ReadAt accepted %+v", req)
		}
	}
	// A Serial request carries no bytes: on a payload engine it would move
	// the cache model and leave the served bytes old.
	write := blockdev.Request{Op: blockdev.OpWrite, Off: 0, Len: blockdev.PageSize}
	if _, err := testEngine(t, 2, true).Serial().Submit(0, write); err == nil {
		t.Fatal("Serial accepted a write on a payload engine")
	}
}

// TestFlushReachesEveryShard writes one page into every stripe of a
// 2-shard payload engine, so both shards buffer dirty pages, and flushes:
// every shard must then have drained its dirty buffers and flushed its
// SSDs.
func TestFlushReachesEveryShard(t *testing.T) {
	e := testEngine(t, 2, true)
	page := make([]byte, blockdev.PageSize)
	for off := int64(0); off < e.Size(); off += e.stripeBytes {
		if err := e.WriteAt(page, off); err != nil {
			t.Fatal(err)
		}
	}
	before, err := e.States(nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, st := range before {
		if st.DirtyBufferedPages == 0 {
			t.Fatalf("shard %d buffers no dirty page before Flush", i)
		}
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	after, err := e.States(nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, st := range after {
		if st.DirtyBufferedPages != 0 || st.Counters.SSDFlushes <= before[i].Counters.SSDFlushes {
			t.Errorf("shard %d after Flush: %d dirty buffered pages, flushes %d -> %d",
				i, st.DirtyBufferedPages, before[i].Counters.SSDFlushes, st.Counters.SSDFlushes)
		}
	}
}

// TestTrimsLeaveNoPrimaryWriteLog: primary storage is durable, so the cache
// commits the trims it forwards there and a shard's primary keeps no
// volatile write-log entry for them, before a flush or after one.
func TestTrimsLeaveNoPrimaryWriteLog(t *testing.T) {
	e := testEngine(t, 2, true)
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	page := make([]byte, blockdev.PageSize)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 2000; i++ {
		off := rng.Int63n(e.Size()/blockdev.PageSize-2) * blockdev.PageSize
		if err := e.WriteAt(page, off); err != nil {
			t.Fatal(err)
		}
		if err := e.Trim(off, 2*blockdev.PageSize); err != nil {
			t.Fatal(err)
		}
	}
	check := func(when string) {
		t.Helper()
		for i, s := range e.shards {
			if n := s.cache.Primary().Content().WriteLogLen(); n != 0 {
				t.Fatalf("%s: shard %d primary keeps %d write-log entries", when, i, n)
			}
		}
	}
	check("after trims")
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	check("after Flush")
}

func TestCloseRejectsNewWork(t *testing.T) {
	e := testEngine(t, 2, true)
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	if err := e.WriteAt([]byte("x"), 0); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if err := e.WriteAt([]byte("y"), 0); !errors.Is(err, ErrClosed) {
		t.Fatalf("write after close: %v", err)
	}
	if err := e.Close(); err != nil {
		t.Fatal("second close errored")
	}
}

// TestBackendAllocatesNothing pins the caller-runs path: no per-request
// slice, completion or closure — a request costs its cache work and a lock
// pair.
func TestBackendAllocatesNothing(t *testing.T) {
	e := testEngine(t, 4, true)
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	page := make([]byte, blockdev.PageSize)
	span := make([]byte, 3*blockdev.PageSize)
	cases := []struct {
		name string
		call func() error
	}{
		{"read", func() error { return e.ReadAt(page, 8*blockdev.PageSize) }},
		{"write", func() error { return e.WriteAt(page, 8*blockdev.PageSize) }},
		{"trim", func() error { return e.Trim(16*blockdev.PageSize, blockdev.PageSize) }},
		{"stripe-crossing write", func() error { return e.WriteAt(span, e.stripeBytes-blockdev.PageSize) }},
	}
	for _, tc := range cases {
		do := func() {
			if err := tc.call(); err != nil {
				t.Fatal(err)
			}
		}
		// Warm until the cache has cycled its segment buffers once.
		for i := 0; i < 2000; i++ {
			do()
		}
		if n := testing.AllocsPerRun(500, do); n != 0 {
			t.Errorf("%s: %v allocations per call, want 0", tc.name, n)
		}
	}
}
