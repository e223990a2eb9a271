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

func stressIntegrity(t *testing.T, shards int) {
	const (
		clients    = 8
		opsPerCli  = 1500
		regionSize = int64(1 << 20)
	)
	shardBytes := clients * regionSize / int64(shards) // one region per client
	build, err := MemShardBuilder(ShardSpec{
		ShardBytes: shardBytes,
		// The same total cache at either shard count: eight 1 MiB-per-SSD
		// shards (the four-erase-group minimum) or one of 8 MiB per SSD.
		CachePerSSD:    shardBytes,
		EraseGroupSize: 256 << 10,
		SegmentColumn:  16 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(Options{Shards: shards, StripePages: 16, Payload: true}, build)
	if err != nil {
		t.Fatal(err)
	}
	if int64(clients)*regionSize != e.Size() {
		t.Fatalf("volume %d does not split into %d client regions", e.Size(), clients)
	}
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
	refs := make([][]byte, clients)
	for c := 0; c < clients; c++ {
		refs[c] = make([]byte, regionSize)
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(id) + 1))
			base := int64(id) * regionSize
			ref := refs[id]
			var reads, writes int64
			fail := func(err error) {
				mu.Lock()
				errs = append(errs, fmt.Errorf("client %d: %w", id, err))
				mu.Unlock()
			}
			for i := 0; i < opsPerCli; i++ {
				off := rng.Int63n(regionSize - 1)
				n := 1 + rng.Int63n(min64(64<<10, regionSize-off))
				firstPage := (base + off) / blockdev.PageSize
				lastPage := (base + off + n + blockdev.PageSize - 1) / blockdev.PageSize
				switch rng.Intn(10) {
				case 0: // flush rides along with data traffic
					if err := e.Flush(); err != nil {
						fail(err)
						return
					}
				case 1, 2, 3:
					p := make([]byte, n)
					if err := e.ReadAt(p, base+off); err != nil {
						fail(err)
						return
					}
					if !bytes.Equal(p, ref[off:off+n]) {
						fail(fmt.Errorf("read [%d,%d) diverges from this client's writes", off, off+n))
						return
					}
					reads += lastPage - firstPage
				default:
					p := make([]byte, n)
					rng.Read(p)
					if err := e.WriteAt(p, base+off); err != nil {
						fail(err)
						return
					}
					copy(ref[off:off+n], p)
					writes += lastPage - firstPage
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
	for c := 0; c < clients; c++ {
		p := make([]byte, regionSize)
		if err := e.ReadAt(p, int64(c)*regionSize); err != nil {
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
