package src

import (
	"fmt"
	"hash"
	"hash/fnv"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"srccache/internal/bench"
	"srccache/internal/blockdev"
	"srccache/internal/vtime"
)

// TestReclaimAllocatesNothing pins the reclaim path at zero allocations.
// Once warm, each run drives Zipf traffic (70 % writes) until a Segment Group
// is reclaimed: the gc round that reclaims it (evacuate, the S2S copies or
// the S2D destage, the drain, the flush and the whole-group trim) and the
// seals around it allocate nothing, under S2S copying, under S2D and with
// the separate GC buffer.
func TestReclaimAllocatesNothing(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(*Config)
		work   func(bench.Counters) int64 // proves the mode ran
	}{
		{"S2S", func(*Config) {}, func(k bench.Counters) int64 { return k.GCCopyBytes }},
		{"S2D", func(c *Config) { c.GC = S2D }, func(k bench.Counters) int64 { return k.DestageBytes }},
		{"SeparateGCBuffer", func(c *Config) { c.SeparateGCBuffer = true }, func(k bench.Counters) int64 { return k.GCSegments }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := newEnv(t, func(c *Config) { c.TrackContent = false; tc.mutate(c) })
			c := e.cache
			rng := rand.New(rand.NewSource(1))
			zipf := rand.NewZipf(rng, 1.1, 1, uint64(testPrimCap/blockdev.PageSize-1))
			reclaim := func() {
				for n := c.counters.GroupReclaims; c.counters.GroupReclaims == n; {
					req := blockdev.Request{Op: blockdev.OpWrite, Off: int64(zipf.Uint64()) * blockdev.PageSize, Len: blockdev.PageSize}
					if rng.Intn(10) < 3 {
						req.Op = blockdev.OpRead
					}
					if _, err := c.Submit(e.at, req); err != nil {
						t.Fatal(err)
					}
				}
			}
			for i := 0; i < 200; i++ {
				reclaim() // every scratch slice reaches its high-water mark
			}
			before := c.counters
			const runs = 100
			if n := testing.AllocsPerRun(runs, reclaim); n != 0 {
				t.Errorf("%v allocs per reclaim, want 0", n)
			}
			if got := c.counters.GroupReclaims - before.GroupReclaims; got < runs+1 {
				t.Fatalf("%d reclaims in %d runs", got, runs+1)
			}
			if tc.work(c.counters) == tc.work(before) {
				t.Fatalf("no %s work in the measured reclaims: %+v", tc.name, c.counters)
			}
		})
	}
}

// TestReclaimTrafficPinned pins what reclaiming costs the devices. A seeded
// stream runs through at least 20 group reclaims on three shapes, and the
// per-SSD and primary request counts and bytes, the cache counters, the
// final virtual time and the order of every device request must match a
// digest recorded before the reclaim path was last optimised: a faster GC
// sends exactly the same requests in the same order.
func TestReclaimTrafficPinned(t *testing.T) {
	for _, tc := range []struct {
		name   string
		ssds   int
		writes int // percent of requests that write
		failAt int // request at which column 1 fails; 0 never
		mutate func(*Config)
		want   string
	}{
		// MemShardBuilder's shape: 4 SSDs, RAID-5, 4 groups, Sel-GC.
		{"MemShard", 4, 70, 0, func(*Config) {}, "4651d1bb9db88291"},
		// The same shape without content tracking, as MemShardBuilder
		// builds it: no hit runs a tag check. On a healthy array the tags
		// change no request, so the digest is MemShard's.
		{"MemShardNoContent", 4, 70, 0, func(c *Config) { c.TrackContent = false }, "4651d1bb9db88291"},
		{"S2DSeparateGCBuffer", 3, 70, 0, func(c *Config) { c.GC = S2D; c.SeparateGCBuffer = true }, "261842f033857ce6"},
		// A RAID-0 column fails mid-stream, so staged pages on it are marked
		// lost and filtered out. A dirty page there would be data loss, so
		// this stream only reads: misses fill, re-reads make pages hot, and
		// S2S stages the hot ones.
		{"RAID0FailedColumn", 4, 0, 30_000, func(c *Config) { c.Level = RAID0 }, "235cb060b1dfab95"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const (
				egs      = 4 << 20
				primCap  = 128 << 20
				requests = 60_000
			)
			order := fnv.New64a()
			ssds := make([]*blockdev.FaultPlan, tc.ssds)
			devs := make([]blockdev.Device, tc.ssds)
			for i := range ssds {
				ssds[i] = blockdev.NewFaultPlan(blockdev.NewMemDevice(4*egs, 10*vtime.Microsecond))
				devs[i] = tap{ssds[i], i, order}
			}
			prim := blockdev.NewMemDevice(primCap, vtime.Millisecond)
			cfg := Config{
				SSDs: devs, Primary: tap{prim, -1, order}, EraseGroupSize: egs, SegmentColumn: 64 << 10, TrackContent: true,
			}
			tc.mutate(&cfg)
			c, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(29))
			pages := int64(primCap / blockdev.PageSize)
			zipf := rand.NewZipf(rng, 1.05, 1, uint64(pages-1))
			var at vtime.Time
			for i := 1; i <= requests; i++ {
				if i == tc.failAt {
					ssds[1].Fail()
				}
				n := 1 + rng.Int63n(8)
				lba := rng.Int63n(pages)
				if rng.Intn(2) == 0 {
					lba = int64(zipf.Uint64())
				}
				req := blockdev.Request{Op: blockdev.OpRead, Off: min(lba, pages-n) * blockdev.PageSize, Len: n * blockdev.PageSize}
				if rng.Intn(100) < tc.writes {
					req.Op = blockdev.OpWrite
				}
				done, err := c.Submit(at, req)
				if err != nil {
					t.Fatalf("request %d %+v: %v", i, req, err)
				}
				at = vtime.Max(at, done)
			}
			if c.counters.GroupReclaims < 20 {
				t.Fatalf("%d group reclaims, want at least 20", c.counters.GroupReclaims)
			}
			var dump strings.Builder
			fmt.Fprintf(&dump, "at %d order %016x\ncounters %+v\nprimary %+v\n", at, order.Sum64(), c.counters, *prim.Stats())
			for i, d := range ssds {
				fmt.Fprintf(&dump, "ssd %d %+v\n", i, *d.Stats())
			}
			h := fnv.New64a()
			h.Write([]byte(dump.String()))
			if got := fmt.Sprintf("%016x", h.Sum64()); got != tc.want {
				t.Errorf("traffic digest %s, want %s:\n%s", got, tc.want, dump.String())
			}
		})
	}
}

// TestSortLBAs checks destage's radix sort against slices.Sort — empty
// input, one element, duplicates, keys up to 2^40 and random lengths and
// widths — and that it allocates nothing once its buffer has grown.
func TestSortLBAs(t *testing.T) {
	var buf []int64
	check := func(keys []int64) {
		t.Helper()
		want := slices.Clone(keys)
		slices.Sort(want)
		buf = sortLBAs(keys, buf)
		if !slices.Equal(keys, want) {
			t.Fatalf("sorted %v, want %v", keys, want)
		}
	}
	check(nil)
	check([]int64{})
	check([]int64{0})
	check([]int64{1 << 40})
	check([]int64{1 << 40, 5, 1<<40 - 1, 0, 5, 1 << 40, 256, 255, 5})
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 500; i++ {
		keys := make([]int64, rng.Intn(3000))
		width := rng.Intn(41) // keys in [0, 2^width]: up to six byte passes
		for j := range keys {
			keys[j] = rng.Int63n(1<<width + 1)
		}
		check(keys)
	}

	unsorted := make([]int64, 2688) // a victim group's payload slots
	for j := range unsorted {
		unsorted[j] = rng.Int63n(1 << 24) // three passes: the odd-count copy-back
	}
	keys := slices.Clone(unsorted)
	if n := testing.AllocsPerRun(100, func() {
		copy(keys, unsorted)
		buf = sortLBAs(keys, buf)
	}); n != 0 {
		t.Errorf("%v allocs per sort, want 0", n)
	}
}

// tap feeds every request a device is handed, with the device and the submit
// time, into a hash shared by the whole array: the order of all its traffic.
type tap struct {
	blockdev.Device
	id    int
	order hash.Hash64
}

func (d tap) Submit(at vtime.Time, req blockdev.Request) (vtime.Time, error) {
	fmt.Fprintf(d.order, "%d %d %v %d %d\n", d.id, at, req.Op, req.Off, req.Len)
	return d.Device.Submit(at, req)
}

func (d tap) Flush(at vtime.Time) (vtime.Time, error) {
	fmt.Fprintf(d.order, "%d %d flush\n", d.id, at)
	return d.Device.Flush(at)
}

// TestSelGCCopyBoundaryAtUMax pins the S2S/S2D switch at exactly U_MAX:
// the paper (§4.2) copies "while utilization is below U_MAX", so at the
// boundary Sel-GC must already have fallen back to S2D.
func TestSelGCCopyBoundaryAtUMax(t *testing.T) {
	e := newEnv(t, func(cfg *Config) { cfg.GC = SelGC; cfg.UMax = 0.90 })
	c := e.cache
	cases := []struct {
		valid, paycap int64
		want          bool
	}{
		{valid: 899, paycap: 1000, want: true},  // strictly below U_MAX: copy
		{valid: 900, paycap: 1000, want: false}, // exactly U_MAX: destage
		{valid: 901, paycap: 1000, want: false}, // above U_MAX: destage
		{valid: 1000, paycap: 1000, want: false},
	}
	for _, tc := range cases {
		c.totalValid, c.totalPaycap = tc.valid, tc.paycap
		if got := c.copyEligible(); got != tc.want {
			t.Errorf("utilization %d/%d: copyEligible = %v, want %v",
				tc.valid, tc.paycap, got, tc.want)
		}
	}

	// S2D never copies, whatever the utilization.
	s2d := newEnv(t, func(cfg *Config) { cfg.GC = S2D })
	s2d.cache.totalValid, s2d.cache.totalPaycap = 1, 1000
	if s2d.cache.copyEligible() {
		t.Error("S2D reported copy-eligible")
	}
}

// TestReinsertKeepsHotBitWhenSuperseded covers the S2S second-chance path:
// a hot clean page that was superseded while the victim was being gathered
// must be skipped without consuming its hot bit — the live copy keeps its
// second chance.
func TestReinsertKeepsHotBitWhenSuperseded(t *testing.T) {
	e := newEnv(t, nil)
	c := e.cache
	const lba = 5
	c.hot.Set(lba)
	superseded := entry{state: stateBufDirty, loc: 0}
	c.mapping.set(lba, superseded)

	cleanBefore := c.cleanBuf.Live()
	copiedBefore := c.counters.GCCopyBytes
	if err := c.reinsert(0, []liveEntry{{lba: lba, dirty: false}}, false); err != nil {
		t.Fatal(err)
	}
	if !c.hot.Get(lba) {
		t.Error("superseded hot clean page lost its hot bit")
	}
	if got, _ := c.mapping.get(lba); got != superseded {
		t.Errorf("mapping overwritten: %+v", got)
	}
	if c.cleanBuf.Live() != cleanBefore {
		t.Error("superseded page was copied into the clean buffer")
	}
	if c.counters.GCCopyBytes != copiedBefore {
		t.Error("superseded page charged a GC copy")
	}
}

// TestReinsertCopiesHotClean is the companion positive case: an
// unsuperseded hot clean page is copied into the clean buffer with its hot
// bit consumed.
func TestReinsertCopiesHotClean(t *testing.T) {
	e := newEnv(t, func(cfg *Config) { cfg.TrackContent = false })
	c := e.cache
	const lba = 7
	c.hot.Set(lba)

	cleanBefore := c.cleanBuf.Live()
	if err := c.reinsert(0, []liveEntry{{lba: lba, dirty: false}}, false); err != nil {
		t.Fatal(err)
	}
	if c.hot.Get(lba) {
		t.Error("copied page kept its hot bit (second chance not consumed)")
	}
	got, ok := c.mapping.get(lba)
	if !ok || got.state != stateBufClean {
		t.Fatalf("page not in clean buffer: %+v (ok=%v)", got, ok)
	}
	if c.cleanBuf.Live() != cleanBefore+1 {
		t.Error("clean buffer did not grow")
	}
	if c.counters.GCCopyBytes != blockdev.PageSize {
		t.Errorf("GCCopyBytes = %d, want one page", c.counters.GCCopyBytes)
	}

	// A cold clean page is dropped outright.
	const cold = 9
	if err := c.reinsert(0, []liveEntry{{lba: cold, dirty: false}}, false); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.mapping.get(cold); ok {
		t.Error("cold clean page was copied")
	}
}

// TestReclaimAtTheFreeSpaceEdge drives a seeded overwrite-heavy stream over
// a volume four times the cache's payload through every small geometry and
// policy mix: 4, 5 and 8 erase groups of four or sixteen segments × victim
// policy × S2D/Sel-GC × GC buffer × RAID-0/4/5 × PC/NPC, on a fault-free
// array. A healthy cache never refuses a request, and its accounting holds
// after.
func TestReclaimAtTheFreeSpaceEdge(t *testing.T) {
	const (
		ssds   = 4
		segCol = 16 << 10
		ops    = 2000
	)
	for _, segs := range []int64{4, 16} {
		egs := segs * segCol
		for _, groups := range []int64{4, 5, 8} {
			for _, victim := range []VictimPolicy{FIFO, Greedy, CostBenefit} {
				for _, gc := range []GCPolicy{S2D, SelGC} {
					for _, gcBuf := range []bool{false, true} {
						for _, level := range []RAIDLevel{RAID0, RAID4, RAID5} {
							for _, parity := range []ParityMode{PC, NPC} {
								name := fmt.Sprintf("%d/%v/%v/gcbuf=%v/%v/%v", groups, victim, gc, gcBuf, level, parity)
								if segs != 4 {
									name += fmt.Sprintf("/%dseg", segs)
								}
								t.Run(name, func(t *testing.T) {
									devs := make([]blockdev.Device, ssds)
									for i := range devs {
										devs[i] = blockdev.NewMemDevice(groups*egs, 10*vtime.Microsecond)
									}
									// Four times the payload of the working groups.
									pages := 4 * (groups - 1) * (egs / segCol) * ssds * (segCol/blockdev.PageSize - 2)
									prim := blockdev.NewMemDevice(pages*blockdev.PageSize, vtime.Millisecond)
									c, err := New(Config{
										SSDs: devs, Primary: prim, EraseGroupSize: egs, SegmentColumn: segCol,
										GC: gc, Victim: victim, SeparateGCBuffer: gcBuf, Level: level, Parity: parity,
										TrackContent: true,
									})
									if err != nil {
										t.Fatal(err)
									}
									rng := rand.New(rand.NewSource(groups))
									var at vtime.Time
									for i := 0; i < ops; i++ {
										var done vtime.Time
										n := 1 + rng.Int63n(4)
										lba := rng.Int63n(pages - n + 1)
										if rng.Intn(2) == 0 {
											lba = rng.Int63n(pages/4 - n + 1) // the hot quarter
										}
										req := blockdev.Request{Op: blockdev.OpWrite, Off: lba * blockdev.PageSize, Len: n * blockdev.PageSize}
										switch r := rng.Intn(100); {
										case r < 2:
											done, err = c.Flush(at)
										case r < 20:
											req.Op = blockdev.OpRead
											fallthrough
										default:
											done, err = c.Submit(at, req)
										}
										if err != nil {
											t.Fatalf("op %d: %v", i, err)
										}
										at = vtime.Max(at, done)
									}
									if c.counters.GroupReclaims < 20 {
										t.Fatalf("%d group reclaims, want at least 20", c.counters.GroupReclaims)
									}
									(&env{cache: c, prim: prim, t: t}).checkInvariants()
								})
							}
						}
					}
				}
			}
		}
	}
}
