package src

import (
	"math/rand"
	"testing"

	"srccache/internal/bench"
	"srccache/internal/blockdev"
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
