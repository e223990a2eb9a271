package baseline

import (
	"errors"
	"slices"
	"testing"

	"srccache/internal/bench"
	"srccache/internal/blockdev"
	"srccache/internal/vtime"
)

const primCap = 256 << 20

// env drives one cache over a 10 µs cache device and a 1 ms primary.
type env[C bench.Cache] struct {
	cache C
	dev   *blockdev.MemDevice
	prim  *blockdev.MemDevice
	at    vtime.Time
	gap   vtime.Duration // idle time after each request
	t     *testing.T
}

func newEnv[C bench.Cache](t *testing.T, cacheBytes int64, build func(Devices) (C, error)) *env[C] {
	t.Helper()
	dev := blockdev.NewMemDevice(cacheBytes, 10*vtime.Microsecond)
	prim := blockdev.NewMemDevice(primCap, vtime.Millisecond)
	c, err := build(Devices{Cache: dev, Primary: prim})
	if err != nil {
		t.Fatal(err)
	}
	return &env[C]{cache: c, dev: dev, prim: prim, t: t}
}

// submit issues one request at the env's clock, moves the clock past its
// completion and the gap, and returns its latency.
func (e *env[C]) submit(op blockdev.Op, lba, pages int64) vtime.Duration {
	e.t.Helper()
	done, err := e.cache.Submit(e.at, blockdev.Request{Op: op, Off: lba * blockdev.PageSize, Len: pages * blockdev.PageSize})
	if err != nil {
		e.t.Fatalf("%v lba %d: %v", op, lba, err)
	}
	lat := done.Sub(e.at)
	e.at = vtime.Max(e.at, done).Add(e.gap)
	return lat
}

// TestScaffold checks what the three caches share: the device set and the
// page walk.
func TestScaffold(t *testing.T) {
	const cacheBytes = 32 << 20
	caches := []struct {
		name  string
		build func(Devices) (bench.Cache, error)
	}{
		{"bcache", func(d Devices) (bench.Cache, error) { return NewBcache(d, true) }},
		{"flashcache", func(d Devices) (bench.Cache, error) { return NewFlashcache(d, true) }},
		{"ripq", func(d Devices) (bench.Cache, error) { return NewRIPQ(d, 1<<20) }},
	}
	for _, tc := range caches {
		t.Run(tc.name, func(t *testing.T) {
			e := newEnv(t, cacheBytes, tc.build)
			// Four cold pages are four 1 ms primary reads in a row: the
			// request completes with the last of them.
			if lat := e.submit(blockdev.OpRead, 8, 4); lat != 4*vtime.Millisecond {
				t.Fatalf("4-page miss latency %v, want the fourth fill's 4ms", lat)
			}
			e.submit(blockdev.OpWrite, 10, 4)
			ctr := e.cache.Counters()
			if ctr.Reads != 4 || ctr.ReadBytes != 4*blockdev.PageSize || ctr.Writes != 4 || ctr.WriteBytes != 4*blockdev.PageSize {
				t.Fatalf("host traffic %+v, want 4 pages each way", ctr)
			}
			if ctr.FillBytes != 4*blockdev.PageSize {
				t.Fatalf("fill bytes %d, want 4 pages", ctr.FillBytes)
			}
			if !slices.Equal(e.cache.CacheDevices(), []blockdev.Device{e.dev}) {
				t.Fatal("SSDs do not default to the cache volume")
			}

			e.submit(blockdev.OpTrim, 0, 4)
			if e.prim.Stats().TrimOps != 1 {
				t.Fatal("trim not forwarded to primary")
			}

			for _, op := range []blockdev.Op{blockdev.OpRead, blockdev.OpWrite, blockdev.OpTrim} {
				_, err := e.cache.Submit(e.at, blockdev.Request{Op: op, Off: primCap - blockdev.PageSize, Len: 2 * blockdev.PageSize})
				if !errors.Is(err, blockdev.ErrOutOfRange) {
					t.Fatalf("%v past primary's end: err = %v", op, err)
				}
			}
			if e.cache.Counters() != ctr {
				t.Fatal("a rejected request counted as host traffic")
			}

			dev := blockdev.NewMemDevice(cacheBytes, 0)
			prim := blockdev.NewMemDevice(primCap, 0)
			if _, err := tc.build(Devices{Primary: prim}); err == nil {
				t.Fatal("accepted a missing cache device")
			}
			if _, err := tc.build(Devices{Cache: dev}); err == nil {
				t.Fatal("accepted a missing primary")
			}
		})
	}
}

// TestWalkCompletesAtTheLatestPage runs the walk with a step whose first
// page is the slowest: every page starts at the request's instant, and the
// request completes at the latest page — or at primary's, for a
// write-through write.
func TestWalkCompletesAtTheLatestPage(t *testing.T) {
	for _, through := range []bool{false, true} {
		prim := blockdev.NewMemDevice(1<<20, vtime.Millisecond)
		c, err := newCore(Devices{Cache: blockdev.NewMemDevice(1<<20, 0), Primary: prim}, blockdev.PageSize, through)
		if err != nil {
			t.Fatal(err)
		}
		const at = vtime.Time(5)
		var pages []int64
		step := func(from vtime.Time, lba int64) (vtime.Time, error) {
			if from != at {
				t.Fatalf("page %d started at %v, not the request's %v", lba, from, at)
			}
			pages = append(pages, lba)
			return from.Add(vtime.Duration(10-lba) * vtime.Microsecond), nil
		}
		for _, op := range []blockdev.Op{blockdev.OpRead, blockdev.OpWrite} {
			pages = pages[:0]
			done, err := c.walk(at, blockdev.Request{Op: op, Off: 2 * blockdev.PageSize, Len: 3 * blockdev.PageSize}, step, step)
			if err != nil {
				t.Fatal(err)
			}
			want := at.Add(8 * vtime.Microsecond)
			if through && op == blockdev.OpWrite {
				want = at.Add(vtime.Millisecond)
			}
			if done != want || !slices.Equal(pages, []int64{2, 3, 4}) {
				t.Fatalf("through=%v %v: done %v pages %v, want %v over pages 2-4", through, op, done, pages, want)
			}
		}
		if got := prim.Stats().WriteOps; got != 0 && !through || got != 1 && through {
			t.Fatalf("through=%v: primary saw %d writes", through, got)
		}
	}
}
