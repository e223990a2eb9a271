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
		c := s.Counters()
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
// through a serial engine and, one Do per request, a started engine. A
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
	if _, err := ser.Flush(0); err != nil {
		t.Fatal(err)
	}

	conc := testEngine(t, shards, false)
	if err := conc.Start(); err != nil {
		t.Fatal(err)
	}
	defer conc.Close()
	for _, r := range stream {
		if err := conc.Do(Request{Op: r.Op, Off: r.Off, Len: r.Len}); err != nil {
			t.Fatal(err)
		}
	}
	if err := conc.Flush(); err != nil {
		t.Fatal(err)
	}

	want := ser.Counters()
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
	cases := []Request{
		{Op: blockdev.OpRead, Off: -1, Len: 8},
		{Op: blockdev.OpRead, Off: 0, Len: 0},
		{Op: blockdev.OpRead, Off: e.Size(), Len: 1},
		{Op: blockdev.OpRead, Off: e.Size() - 4, Len: 8},
		{Op: blockdev.Op(9), Off: 0, Len: 8},
		{Op: blockdev.OpWrite, Off: 0, Len: 8, Data: make([]byte, 4)},
	}
	for _, req := range cases {
		if err := e.Do(req); err == nil {
			t.Fatalf("accepted %+v", req)
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

// TestDoAllocatesNothing pins the caller-runs path: no per-request slice,
// completion or closure — a request costs its cache work and a lock pair.
func TestDoAllocatesNothing(t *testing.T) {
	e := testEngine(t, 4, true)
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	page := make([]byte, blockdev.PageSize)
	span := make([]byte, 3*blockdev.PageSize)
	cases := []struct {
		name string
		req  Request
	}{
		{"read", Request{Op: blockdev.OpRead, Off: 8 * blockdev.PageSize, Len: blockdev.PageSize, Data: page}},
		{"write", Request{Op: blockdev.OpWrite, Off: 8 * blockdev.PageSize, Len: blockdev.PageSize, Data: page}},
		{"trim", Request{Op: blockdev.OpTrim, Off: 16 * blockdev.PageSize, Len: blockdev.PageSize}},
		{"stripe-crossing write", Request{Op: blockdev.OpWrite, Off: e.stripeBytes - blockdev.PageSize, Len: int64(len(span)), Data: span}},
	}
	for _, tc := range cases {
		do := func() {
			if err := e.Do(tc.req); err != nil {
				t.Fatal(err)
			}
		}
		// Warm until the cache has cycled its segment buffers once.
		for i := 0; i < 2000; i++ {
			do()
		}
		if n := testing.AllocsPerRun(500, do); n != 0 {
			t.Errorf("%s: %v allocations per Do, want 0", tc.name, n)
		}
	}
}
