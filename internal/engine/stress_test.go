package engine

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"srccache/internal/bench"
	"srccache/internal/blockdev"
)

// TestStressConcurrentIntegrity hammers a payload engine from many client
// goroutines mixing reads, writes, flushes, and counter snapshots, under
// -race in the tier-1 run — once with a shard per client and once with all
// eight clients contending on one shard lock, the shape a queue used to
// absorb. It asserts:
//
//   - counters stay coherent: summed shard counters account for exactly
//     the pages the clients submitted (shards share nothing, so nothing
//     can be double-counted or lost);
//   - payload stays correct: each client owns a disjoint region, so its
//     final reads must observe its own last writes despite the shared
//     locks and interleaved flushes.
func TestStressConcurrentIntegrity(t *testing.T) {
	for _, shards := range []int{8, 1} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) { stressIntegrity(t, shards) })
	}
}

// Stress client streams: client id owns [id*stressRegion, (id+1)*stressRegion)
// of the volume and draws its ops from a rand.Source seeded id+1.
const (
	stressClients = 8
	stressOps     = 1500 // per client
	stressRegion  = int64(1 << 20)
)

// stressShards builds the stress volume over the given shard count with
// MemShardBuilder's four-erase-group default cache per shard: 256 KiB
// groups of sixteen 16 KiB segment columns.
func stressShards(t *testing.T, shards int, payload bool) *Engine {
	t.Helper()
	build, err := MemShardBuilder(ShardSpec{
		ShardBytes:     stressClients * stressRegion / int64(shards),
		EraseGroupSize: 256 << 10,
		SegmentColumn:  16 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(Options{Shards: shards, StripePages: 16, Payload: payload}, build)
	if err != nil {
		t.Fatal(err)
	}
	if stressClients*stressRegion != e.Size() {
		t.Fatalf("volume %d does not split into %d client regions", e.Size(), stressClients)
	}
	return e
}

// stressOp is one op of a client stream: a flush, or a read or write of
// [off, off+n) within the client's region.
type stressOp struct {
	flush  bool
	write  bool
	off, n int64
}

// nextStressOp draws a client's next op from rng. A write's payload is
// drawn into data[:n] (data holds at least 64 KiB), so a stream consumes
// its source the same way whether or not the caller keeps the bytes.
func nextStressOp(rng *rand.Rand, data []byte) stressOp {
	off := rng.Int63n(stressRegion - 1)
	n := 1 + rng.Int63n(min64(64<<10, stressRegion-off))
	switch rng.Intn(10) {
	case 0: // flush rides along with data traffic
		return stressOp{flush: true}
	case 1, 2, 3:
		return stressOp{off: off, n: n}
	default:
		rng.Read(data[:n])
		return stressOp{write: true, off: off, n: n}
	}
}

func stressIntegrity(t *testing.T, shards int) {
	e := stressShards(t, shards, true)
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}

	var (
		wg sync.WaitGroup
		mu sync.Mutex
		// pages written/read/trimmed per client, page-rounded the same way
		// the engine accounts them.
		wantReads, wantWrites int64
		errs                  []error
	)
	refs := make([][]byte, stressClients)
	for c := 0; c < stressClients; c++ {
		refs[c] = make([]byte, stressRegion)
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(id) + 1))
			base := int64(id) * stressRegion
			ref := refs[id]
			buf := make([]byte, 64<<10)
			var reads, writes int64
			fail := func(err error) {
				mu.Lock()
				errs = append(errs, fmt.Errorf("client %d: %w", id, err))
				mu.Unlock()
			}
			for i := 0; i < stressOps; i++ {
				o := nextStressOp(rng, buf)
				p := buf[:o.n]
				firstPage := (base + o.off) / blockdev.PageSize
				lastPage := (base + o.off + o.n + blockdev.PageSize - 1) / blockdev.PageSize
				switch {
				case o.flush:
					if err := e.Flush(); err != nil {
						fail(err)
						return
					}
				case o.write:
					if err := e.WriteAt(p, base+o.off); err != nil {
						fail(err)
						return
					}
					copy(ref[o.off:], p)
					writes += lastPage - firstPage
				default:
					if err := e.ReadAt(p, base+o.off); err != nil {
						fail(err)
						return
					}
					if !bytes.Equal(p, ref[o.off:o.off+o.n]) {
						fail(fmt.Errorf("read [%d,%d) diverges from this client's writes", o.off, o.off+o.n))
						return
					}
					reads += lastPage - firstPage
				}
				if i%500 == 250 {
					if _, err := e.Counters(); err != nil {
						fail(err)
						return
					}
				}
			}
			mu.Lock()
			wantReads += reads
			wantWrites += writes
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	if len(errs) > 0 {
		t.Fatal(errs[0])
	}

	got, err := e.Counters()
	if err != nil {
		t.Fatal(err)
	}
	if got.Reads != wantReads {
		t.Fatalf("summed shard read pages %d, clients submitted %d", got.Reads, wantReads)
	}
	if got.Writes != wantWrites {
		t.Fatalf("summed shard write pages %d, clients submitted %d", got.Writes, wantWrites)
	}
	if got.ReadHits > got.Reads {
		t.Fatalf("hits %d exceed reads %d", got.ReadHits, got.Reads)
	}

	// Final payload check per client region, through the engine.
	for c := 0; c < stressClients; c++ {
		p := make([]byte, stressRegion)
		if err := e.ReadAt(p, int64(c)*stressRegion); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(p, refs[c]) {
			t.Fatalf("client %d region diverges after stress", c)
		}
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestNoFreeGroupsEdge replays the one-shard stress as a single goroutine:
// at each step a rand.Source seeded with the case's seed picks which
// client's next op runs. On these seeds the four-group cache used to
// refuse a write with src.ErrNoFreeGroups, because a Sel-GC copy round
// admitted with one free group needed a second one.
func TestNoFreeGroupsEdge(t *testing.T) {
	for _, seed := range []int64{40, 179, 289, 391, 549} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			e := stressShards(t, 1, false)
			sched := rand.New(rand.NewSource(seed))
			rngs := make([]*rand.Rand, stressClients)
			left := make([]int, stressClients)
			for c := range rngs {
				rngs[c] = rand.New(rand.NewSource(int64(c) + 1))
				left[c] = stressOps
			}
			buf := make([]byte, 64<<10)
			for step := 0; step < stressClients*stressOps; step++ {
				c := sched.Intn(stressClients)
				for left[c] == 0 {
					c = sched.Intn(stressClients)
				}
				left[c]--
				o := nextStressOp(rngs[c], buf)
				var err error
				switch {
				case o.flush:
					err = e.Flush()
				case o.write:
					err = e.Do(Request{Op: blockdev.OpWrite, Off: int64(c)*stressRegion + o.off, Len: o.n})
				default:
					err = e.Do(Request{Op: blockdev.OpRead, Off: int64(c)*stressRegion + o.off, Len: o.n})
				}
				if err != nil {
					t.Fatalf("step %d, client %d: %v", step, c, err)
				}
			}
		})
	}
}

// TestCloseFencesCallers runs Close against goroutines that hammer Do,
// Flush and Counters: every call must return nil or ErrClosed, and once
// Close has returned no op may run — the shard counters read then never
// change again, although the callers keep calling.
func TestCloseFencesCallers(t *testing.T) {
	e := testEngine(t, 4, true)
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	const callers = 8
	var (
		wg    sync.WaitGroup
		stop  atomic.Bool
		calls atomic.Int64
		bad   atomic.Pointer[error]
	)
	check := func(err error) {
		calls.Add(1)
		if err != nil && !errors.Is(err, ErrClosed) {
			bad.CompareAndSwap(nil, &err)
		}
	}
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(id) + 1))
			p := make([]byte, 300<<10) // crosses a 256 KiB stripe: two locks per op
			for i := 0; !stop.Load(); i++ {
				off := rng.Int63n(e.Size() - int64(len(p)))
				switch i % 8 {
				case 0:
					check(e.Flush())
				case 1:
					_, err := e.Counters()
					check(err)
				case 2:
					check(e.ReadAt(p, off))
				default:
					check(e.WriteAt(p, off))
				}
			}
		}(c)
	}
	waitCalls := func(n int64) {
		for target := calls.Load() + n; calls.Load() < target; {
			runtime.Gosched()
		}
	}
	waitCalls(200) // Close lands in the middle of traffic
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	snapshot := func() []bench.Counters {
		out := make([]bench.Counters, len(e.shards))
		for i, s := range e.shards {
			s.mu.Lock()
			out[i] = s.cache.Counters()
			s.mu.Unlock()
		}
		return out
	}
	after := snapshot()
	waitCalls(5000) // the callers are still calling
	stop.Store(true)
	wg.Wait()
	if p := bad.Load(); p != nil {
		t.Fatalf("a call racing Close returned %v, want nil or ErrClosed", *p)
	}
	for i, c := range snapshot() {
		if c != after[i] {
			t.Fatalf("shard %d ran an op after Close returned:\n at close %+v\n    later %+v", i, after[i], c)
		}
	}
	if err := e.Do(Request{Op: blockdev.OpRead, Off: 0, Len: 4096}); !errors.Is(err, ErrClosed) {
		t.Fatalf("do after close: %v", err)
	}
}
