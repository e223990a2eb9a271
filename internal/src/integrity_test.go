package src

import (
	"errors"
	"math/rand"
	"testing"

	"srccache/internal/blockdev"
	"srccache/internal/vtime"
)

// TestContentOracle drives the cache with random traffic and checks, for
// every page ever written, that the current content is correct wherever it
// lives: verified in the cache via ReadCheck, or durable in primary storage
// after destage.
func TestContentOracle(t *testing.T) {
	e := newEnv(t, nil)
	rng := rand.New(rand.NewSource(42))
	span := int64(6000)
	written := make(map[int64]uint64) // oracle: lba -> version

	for i := 0; i < 15000; i++ {
		lba := rng.Int63n(span)
		if rng.Float64() < 0.6 {
			e.write(lba, 1)
			written[lba]++
		} else {
			e.read(lba, 1)
		}
	}
	e.checkInvariants()

	for lba, version := range written {
		want := blockdev.DataTag(lba, version)
		if _, cached := e.cache.mapping.get(lba); cached {
			got, _, err := e.cache.ReadCheck(e.at, lba)
			if err != nil {
				t.Fatalf("ReadCheck(%d): %v", lba, err)
			}
			if got != want {
				t.Fatalf("cached page %d tag %v, want version %d", lba, got, version)
			}
			continue
		}
		// Evicted: the latest version must have been destaged.
		got, err := e.prim.Content().ReadTag(lba)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("evicted page %d: primary has %v, want version %d", lba, got, version)
		}
	}
}

// TestRecoveryAfterCleanFlush checks that a crash immediately after Flush
// loses nothing.
func TestRecoveryAfterCleanFlush(t *testing.T) {
	e := newEnv(t, nil)
	for lba := int64(0); lba < 100; lba++ {
		e.write(lba, 1)
	}
	if _, err := e.cache.Flush(e.at); err != nil {
		t.Fatal(err)
	}
	// Host crash: volatile device caches drop, then recovery scans.
	for _, d := range e.ssds {
		d.Content().Crash()
	}
	segs, err := e.cache.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if segs == 0 {
		t.Fatal("recovered no segments")
	}
	e.checkInvariants()
	for lba := int64(0); lba < 100; lba++ {
		en, ok := e.cache.mapping.get(lba)
		if !ok {
			t.Fatalf("page %d lost after flushed crash", lba)
		}
		if en.state != stateSSDDirty {
			t.Fatalf("page %d state %v, want dirty", lba, en.state)
		}
		got, _, err := e.cache.ReadCheck(e.at, lba)
		if err != nil {
			t.Fatal(err)
		}
		if got != blockdev.DataTag(lba, 1) {
			t.Fatalf("page %d content wrong after recovery", lba)
		}
	}
}

// TestRecoveryDropsUnflushedSegments checks the loss window: segments whose
// metadata never became durable disappear, and the newest durable version
// wins for rewritten pages.
func TestRecoveryDropsUnflushedSegments(t *testing.T) {
	e := newEnv(t, nil)
	capPages := int64(e.cache.dirtyBuf.Cap())
	// Durable epoch: versions 1.
	for lba := int64(0); lba < 2*capPages; lba++ {
		e.write(lba, 1)
	}
	if _, err := e.cache.Flush(e.at); err != nil {
		t.Fatal(err)
	}
	// Volatile epoch: rewrite the first pages (versions 2), no flush.
	for lba := int64(0); lba < capPages; lba++ {
		e.write(lba, 1)
	}
	for _, d := range e.ssds {
		d.Content().Crash()
	}
	if _, err := e.cache.Recover(); err != nil {
		t.Fatal(err)
	}
	e.checkInvariants()
	// Every page must be back at version 1 — the durable epoch.
	for lba := int64(0); lba < 2*capPages; lba++ {
		if _, ok := e.cache.mapping.get(lba); !ok {
			t.Fatalf("page %d lost entirely", lba)
		}
		got, _, err := e.cache.ReadCheck(e.at, lba)
		if err != nil {
			t.Fatal(err)
		}
		if got != blockdev.DataTag(lba, 1) {
			t.Fatalf("page %d recovered to %v, want version 1", lba, got)
		}
	}
}

// TestRecoveryDiscardsTornSegment corrupts one column's ME block: the torn
// column must be discarded while intact columns of the same segment
// survive.
func TestRecoveryDiscardsTornSegment(t *testing.T) {
	e := newEnv(t, nil)
	capPages := int64(e.cache.dirtyBuf.Cap())
	for lba := int64(0); lba < capPages; lba++ {
		e.write(lba, 1)
	}
	if _, err := e.cache.Flush(e.at); err != nil {
		t.Fatal(err)
	}
	// Tear column 0 of the first written segment (group 1, segment 0):
	// corrupt its ME blob so the MS/ME generation check fails.
	mePage := (testEGS + int64(3)*blockdev.PageSize) / blockdev.PageSize
	if err := e.ssds[0].Content().Corrupt(mePage); err != nil {
		t.Fatal(err)
	}
	segs, err := e.cache.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if segs == 0 {
		t.Fatal("everything discarded")
	}
	// Column 0's pages are gone; other columns' pages survive.
	recovered := e.cache.mapping.count()
	if recovered == 0 || recovered >= int(capPages)+e.cache.cleanBuf.Cap() {
		t.Fatalf("recovered %d pages, want partial survival below %d", recovered, capPages)
	}
	e.checkInvariants()
}

func TestRecoverRequiresTrackContent(t *testing.T) {
	e := newEnv(t, func(c *Config) { c.TrackContent = false })
	if _, err := e.cache.Recover(); err == nil {
		t.Fatal("recovery without TrackContent accepted")
	}
}

// TestDegradedReadReconstructsDirty fails one SSD and checks dirty data is
// still served via parity reconstruction.
func TestDegradedReadReconstructsDirty(t *testing.T) {
	e := newEnv(t, nil)
	capPages := int64(e.cache.dirtyBuf.Cap())
	for lba := int64(0); lba < capPages; lba++ {
		e.write(lba, 1) // one full dirty segment on SSD
	}
	// Find a page on SSD 0 and fail that drive.
	var target int64 = -1
	for lba := int64(0); lba < capPages; lba++ {
		en, _ := e.cache.mapping.get(lba)
		if col, _ := e.cache.lay.devOffset(e.cache.cfg, en.loc); col == 0 && en.state == stateSSDDirty {
			target = lba
			break
		}
	}
	if target < 0 {
		t.Fatal("no dirty page on ssd 0")
	}
	e.ssds[0].Fail()
	before := e.ssds[1].Stats().ReadOps
	e.read(target, 1)
	if e.ssds[1].Stats().ReadOps == before {
		t.Fatal("degraded read did not touch surviving SSDs")
	}
	// Content-level reconstruction agrees with the written version.
	tag, err := e.cache.reconstructTag(e.cache.mapping.entries[target].loc)
	if err != nil {
		t.Fatal(err)
	}
	if tag != blockdev.DataTag(target, 1) {
		t.Fatalf("reconstructed %v, want version 1", tag)
	}
	// A second failure is fatal.
	e.ssds[1].Fail()
	_, err = e.cache.Submit(e.at, blockdev.Request{Op: blockdev.OpRead, Off: target * blockdev.PageSize, Len: blockdev.PageSize})
	if !errors.Is(err, ErrDataLoss) {
		t.Fatalf("double failure err = %v", err)
	}
}

// TestDegradedCleanNPCRefetches fails one SSD and checks parityless clean
// data is transparently re-fetched from primary.
func TestDegradedCleanNPCRefetches(t *testing.T) {
	e := newEnv(t, nil)
	capPages := int64(e.cache.cleanBuf.Cap())
	// Fill one clean segment via read misses, then push it to SSD.
	e.read(0, capPages)
	e.read(capPages, capPages) // second segment forces the first out... same request inserts as it goes
	// Find a clean on-SSD page on SSD 2.
	var target int64 = -1
	for lba := int64(0); lba < 2*capPages; lba++ {
		en, ok := e.cache.mapping.get(lba)
		if !ok || en.state != stateSSDClean {
			continue
		}
		if col, _ := e.cache.lay.devOffset(e.cache.cfg, en.loc); col == 2 {
			target = lba
			break
		}
	}
	if target < 0 {
		t.Skip("no clean on-SSD page on ssd 2 at this geometry")
	}
	e.ssds[2].Fail()
	primReads := e.prim.Stats().ReadOps
	e.read(target, 1)
	if e.prim.Stats().ReadOps == primReads {
		t.Fatal("failed clean read did not refetch from primary")
	}
	e.checkInvariants()
}

// replace installs dev as column col through ReplaceSSD, which leaves the
// column's rebuild pending.
func (e *env) replace(col int, dev *blockdev.FaultPlan) {
	e.t.Helper()
	done, err := e.cache.ReplaceSSD(e.at, col, dev)
	if err != nil {
		e.t.Fatal(err)
	}
	e.ssds[col], e.at = dev, done
}

// rebuildSteps drives a pending rebuild until it completes or a step
// fails, returning that step's error.
func (e *env) rebuildSteps() error {
	for pending := true; pending; {
		done, more, err := e.cache.RebuildStep(e.at)
		if err != nil {
			return err
		}
		e.at, pending = vtime.Max(e.at, done), more
	}
	return nil
}

// TestRebuildSSD restores a replaced drive and verifies parity-protected
// content is identical afterwards.
func TestRebuildSSD(t *testing.T) {
	e := newEnv(t, nil)
	capPages := int64(e.cache.dirtyBuf.Cap())
	for lba := int64(0); lba < 4*capPages; lba++ {
		e.write(lba, 1)
	}
	if _, err := e.cache.Flush(e.at); err != nil {
		t.Fatal(err)
	}
	// Record the dirty pages living on SSD 1, fail and "replace" it.
	var onDrive []int64
	for lba := int64(0); lba < 4*capPages; lba++ {
		en, ok := e.cache.mapping.get(lba)
		if !ok || en.state != stateSSDDirty {
			continue
		}
		if col, _ := e.cache.lay.devOffset(e.cache.cfg, en.loc); col == 1 {
			onDrive = append(onDrive, lba)
		}
	}
	if len(onDrive) == 0 {
		t.Fatal("nothing on ssd 1")
	}
	e.ssds[1].Fail()
	e.replace(1, newSSD())
	start := e.at
	if err := e.rebuildSteps(); err != nil {
		t.Fatal(err)
	}
	if e.at <= start {
		t.Fatal("rebuild free of charge")
	}
	for _, lba := range onDrive {
		got, _, err := e.cache.ReadCheck(e.at, lba)
		if err != nil {
			t.Fatalf("ReadCheck(%d) after rebuild: %v", lba, err)
		}
		if got != blockdev.DataTag(lba, 1) {
			t.Fatalf("page %d content wrong after rebuild", lba)
		}
	}
	if _, err := e.cache.ReplaceSSD(e.at, 9, e.ssds[1]); err == nil {
		t.Fatal("rebuild of unknown ssd accepted")
	}
	e.checkInvariants()
}

// TestReadCheckRepairsSilentCorruption corrupts an on-SSD dirty page and
// checks ReadCheck repairs it from parity (paper §4.1: checksum mismatch ->
// parity recovery).
func TestReadCheckRepairsSilentCorruption(t *testing.T) {
	e := newEnv(t, nil)
	capPages := int64(e.cache.dirtyBuf.Cap())
	for lba := int64(0); lba < capPages; lba++ {
		e.write(lba, 1)
	}
	target := int64(0)
	en, _ := e.cache.mapping.get(target)
	if en.state != stateSSDDirty {
		t.Fatalf("page 0 state %v", en.state)
	}
	col, off := e.cache.lay.devOffset(e.cache.cfg, en.loc)
	if err := e.ssds[col].Content().Corrupt(off / blockdev.PageSize); err != nil {
		t.Fatal(err)
	}
	got, _, err := e.cache.ReadCheck(e.at, target)
	if err != nil {
		t.Fatal(err)
	}
	if got != blockdev.DataTag(target, 1) {
		t.Fatalf("repair returned %v", got)
	}
	// The repair rewrote the good tag: a second check passes without
	// parity work.
	if tag, terr := e.ssds[col].Content().ReadTag(off / blockdev.PageSize); terr != nil {
		t.Fatal(terr)
	} else if tag != got {
		t.Fatal("repair did not write back the corrected page")
	}
}

// TestReadCheckRefetchesCorruptClean corrupts a parityless clean page:
// ReadCheck must drop it and refetch from primary.
func TestReadCheckRefetchesCorruptClean(t *testing.T) {
	e := newEnv(t, nil)
	capPages := int64(e.cache.cleanBuf.Cap())
	e.read(0, capPages) // one clean (NPC, parityless) segment
	var target int64 = -1
	for lba := int64(0); lba < capPages; lba++ {
		if en, ok := e.cache.mapping.get(lba); ok && en.state == stateSSDClean {
			target = lba
			break
		}
	}
	if target < 0 {
		t.Fatal("no on-SSD clean page")
	}
	en, _ := e.cache.mapping.get(target)
	col, off := e.cache.lay.devOffset(e.cache.cfg, en.loc)
	if err := e.ssds[col].Content().Corrupt(off / blockdev.PageSize); err != nil {
		t.Fatal(err)
	}
	primReads := e.prim.Stats().ReadOps
	if _, _, err := e.cache.ReadCheck(e.at, target); err != nil {
		t.Fatal(err)
	}
	if e.prim.Stats().ReadOps == primReads {
		t.Fatal("corrupt clean page not refetched")
	}
	e.checkInvariants()
}

// corruptOnSSD plants silent corruption under lba's on-SSD copy and returns
// the copy's column and device page.
func (e *env) corruptOnSSD(lba int64) (col int, page int64) {
	e.t.Helper()
	col, page, ok := e.cache.Locate(lba)
	if !ok {
		e.t.Fatalf("page %d not on SSD", lba)
	}
	if err := e.ssds[col].Content().Corrupt(page); err != nil {
		e.t.Fatal(err)
	}
	return col, page
}

// TestHostReadRepairsCorruption covers the checked read on the path clients
// are served by: a host read of a silently corrupted page repairs it like
// ReadCheck does — a parity segment's page is reconstructed and the rewrite
// committed, a clean page without parity is refetched, and a dirty page
// without parity is reported lost instead of being served.
func TestHostReadRepairsCorruption(t *testing.T) {
	t.Run("parity", func(t *testing.T) {
		e := newEnv(t, nil)
		capPages := int64(e.cache.dirtyBuf.Cap())
		e.write(0, capPages)
		if _, err := e.cache.Flush(e.at); err != nil {
			t.Fatal(err)
		}
		col, page := e.corruptOnSSD(3)
		e.read(0, capPages)
		st := e.cache.State(nil).Repair
		if st.CorruptionsDetected != 1 || st.CorruptionsRepaired != 1 {
			t.Fatalf("host read detected %d and repaired %d corruptions, want 1 and 1",
				st.CorruptionsDetected, st.CorruptionsRepaired)
		}
		// The rewrite is committed: a crash right after the read keeps it.
		e.ssds[col].Content().Crash()
		if got, err := e.ssds[col].Content().ReadTag(page); err != nil || got != blockdev.DataTag(3, 1) {
			t.Fatalf("repaired tag after a crash: %v (err %v), want version 1", got, err)
		}
	})
	t.Run("parityless-clean", func(t *testing.T) {
		e := newEnv(t, nil)
		capPages := int64(e.cache.cleanBuf.Cap())
		e.read(0, capPages) // one clean (NPC, parityless) segment
		e.corruptOnSSD(2)
		primReads := e.prim.Stats().ReadOps
		e.read(0, capPages)
		if e.prim.Stats().ReadOps == primReads {
			t.Fatal("corrupt clean page not refetched")
		}
		if st := e.cache.State(nil).Repair; st.CorruptionsDetected != 1 || st.CorruptionsRepaired != 1 {
			t.Fatalf("host read detected %d and repaired %d corruptions, want 1 and 1",
				st.CorruptionsDetected, st.CorruptionsRepaired)
		}
		if _, _, err := e.cache.ReadCheck(e.at, 2); err != nil {
			t.Fatal(err)
		}
		if st := e.cache.State(nil).Repair; st.CorruptionsDetected != 1 {
			t.Fatal("the refetched page does not verify")
		}
		e.checkInvariants()
	})
	t.Run("parityless-dirty", func(t *testing.T) {
		e := newEnv(t, func(c *Config) { c.Level = RAID0 })
		capPages := int64(e.cache.dirtyBuf.Cap())
		e.write(0, capPages)
		e.corruptOnSSD(1)
		_, err := e.cache.Submit(e.at, blockdev.Request{
			Op: blockdev.OpRead, Off: 0, Len: capPages * blockdev.PageSize,
		})
		if !errors.Is(err, ErrDataLoss) {
			t.Fatalf("read of a corrupt dirty page without parity: %v, want ErrDataLoss", err)
		}
	})
}

// TestGCVerifiesNeverWrittenPages corrupts a hot clean page that was filled
// from primary and never written through the cache, then runs a copy round
// over its group: the round must not carry the corrupt copy forward. With
// parity the page is reconstructed; without it the page is dropped and
// reloads from primary on demand.
func TestGCVerifiesNeverWrittenPages(t *testing.T) {
	for _, parity := range []ParityMode{PC, NPC} {
		t.Run(parity.String(), func(t *testing.T) {
			e := newEnv(t, func(c *Config) { c.Parity = parity })
			c := e.cache
			perGroup := int64(c.cleanBuf.Cap()) * c.lay.segsPerSG
			e.read(0, perGroup+int64(c.cleanBuf.Cap())) // closes the first group
			const lba = 5
			victim := c.fifo[0]
			if en, _ := c.mapping.get(lba); c.lay.groupOf(en.loc) != victim {
				t.Fatalf("page %d is not in the first closed group", lba)
			}
			e.read(lba, 1) // hot: a copy round keeps it
			e.corruptOnSSD(lba)
			live, done, err := c.evacuate(e.at, victim, true, false)
			if err != nil {
				t.Fatal(err)
			}
			if err := c.reinsert(done, live, false); err != nil {
				t.Fatal(err)
			}
			if c.State(nil).Repair.CorruptionsDetected != 1 {
				t.Fatal("copy round did not detect the corrupt page")
			}
			en, ok := c.mapping.get(lba)
			if !ok {
				if parity == PC {
					t.Fatal("a reconstructable page was dropped")
				}
				return
			}
			if en.state != stateBufClean {
				t.Fatalf("page %d in state %v after the copy round", lba, en.state)
			}
			want, err := e.prim.Content().ReadTag(lba)
			if err != nil {
				t.Fatal(err)
			}
			if got := c.cleanBuf.slots[en.loc].tag; got != want {
				t.Fatalf("copy round carried tag %v forward, primary holds %v", got, want)
			}
		})
	}
}

// reclaimOldest runs one gc round on the oldest closed group.
func (e *env) reclaimOldest(copyMode bool) ([]int64, error) {
	return e.reclaimGroup(e.cache.fifo[0], copyMode)
}

// reclaimGroup runs one gc round on victim as gc runs it: evacuate, the S2S
// copies (copyMode, cold clean pages included) or the S2D destage, the
// drain, the flush and the trim. It returns the pages the round took out of
// the group.
func (e *env) reclaimGroup(victim int64, copyMode bool) ([]int64, error) {
	c := e.cache
	live, done, err := c.evacuate(e.at, victim, copyMode, copyMode)
	if err != nil {
		return nil, err
	}
	moved := make([]int64, len(live))
	for i, le := range live {
		moved[i] = le.lba
	}
	if copyMode {
		err = c.reinsert(done, live, true)
	} else {
		err = c.destage(done, live)
	}
	if err == nil {
		done, err = c.drainDirty(done)
	}
	if err == nil {
		done, err = c.flushSSDs(done)
	}
	if err == nil {
		err = c.reclaim(done, victim)
	}
	e.at = vtime.Max(e.at, done)
	return moved, err
}

// verifies requires lba's copy wherever it now lives to hold its expected
// tag: a RAM buffer's slot, an SSD copy ReadCheck verifies without finding
// corruption, or, when the cache no longer holds lba, primary storage.
func (e *env) verifies(lba int64) {
	e.t.Helper()
	c := e.cache
	want, err := c.expectedTag(lba)
	if err != nil {
		e.t.Fatal(err)
	}
	var got blockdev.Tag
	en, cached := c.mapping.get(lba)
	switch {
	case !cached:
		got, err = e.prim.Content().ReadTag(lba)
	case en.state == stateBufClean:
		got = c.cleanBuf.slots[en.loc].tag
	case en.state == stateBufDirty:
		got = c.dirtyBuf.slots[en.loc].tag
	case en.state == stateBufGC:
		got = c.gcBuf.slots[en.loc].tag
	default:
		before := c.State(nil).Repair.CorruptionsDetected
		var done vtime.Time
		if got, done, err = c.ReadCheck(e.at, lba); err == nil && c.State(nil).Repair.CorruptionsDetected != before {
			e.t.Fatalf("page %d: its SSD copy is corrupt", lba)
		}
		e.at = vtime.Max(e.at, done)
	}
	if err != nil {
		e.t.Fatalf("page %d: %v", lba, err)
	}
	if got != want {
		e.t.Fatalf("page %d holds %v (cached %v, state %v), want %v", lba, got, cached, en.state, want)
	}
}

// stripeFault closes the first group with dirty (writes) or clean (read
// misses) pages and flushes, then fail-stops column 0 and silently
// corrupts a page on another column whose stripe holds a page on column 0:
// a double fault that single parity cannot rebuild. It returns that page
// on column 0 and the corrupt one.
func stripeFault(e *env, dirty bool) (onFailed, corrupt int64) {
	e.t.Helper()
	c := e.cache
	if dirty {
		e.write(0, (c.lay.segsPerSG+1)*int64(c.dirtyBuf.Cap()))
	} else {
		e.read(0, (c.lay.segsPerSG+1)*int64(c.cleanBuf.Cap()))
	}
	if _, err := c.Flush(e.at); err != nil {
		e.t.Fatal(err)
	}
	victim := c.fifo[0]
	for lba := range int64(64) {
		en, ok := c.mapping.get(lba)
		if !ok || !en.state.onSSD() || c.lay.groupOf(en.loc) != victim || en.col != 0 {
			continue
		}
		sg, seg, _, pic := c.lay.split(en.loc)
		for col := 1; col < c.lay.m; col++ {
			if packed := c.groups[sg].slots[c.lay.localSlot(c.lay.loc(sg, seg, col, pic))]; packed != slotFree {
				corrupt, _ = unpackSlot(packed)
				e.ssds[0].Fail()
				e.corruptOnSSD(corrupt)
				return lba, corrupt
			}
		}
	}
	e.t.Fatal("no stripe of the first group holds pages on column 0 and another column")
	return 0, 0
}

// TestDoubleFaultDirtyIsDataLoss: a dirty page on a failed column whose
// stripe holds a corrupt page, and that corrupt page, cannot be rebuilt
// from surviving columns that can be read. A host read of either, a
// reclaim of their group and a rebuild of the failed column all report
// ErrDataLoss. The rebuild keeps the segment queued, so a read of the page
// after it reports the loss too.
func TestDoubleFaultDirtyIsDataLoss(t *testing.T) {
	for _, name := range []string{"read-failed", "read-corrupt", "reclaim", "rebuild"} {
		t.Run(name, func(t *testing.T) {
			e := newEnv(t, nil)
			onFailed, corrupt := stripeFault(e, true)
			var err error
			switch name {
			case "reclaim":
				_, err = e.reclaimOldest(false)
			case "rebuild":
				e.replace(0, newSSD())
				if err = e.rebuildSteps(); !errors.Is(err, ErrDataLoss) {
					break
				}
				if e.cache.State(nil).RebuildRemaining == 0 {
					t.Fatal("the rebuild dequeued the segment it could not rebuild")
				}
				_, err = e.cache.Submit(e.at, blockdev.Request{
					Op: blockdev.OpRead, Off: onFailed * blockdev.PageSize, Len: blockdev.PageSize,
				})
			default:
				lba := onFailed
				if name == "read-corrupt" {
					lba = corrupt
				}
				_, err = e.cache.Submit(e.at, blockdev.Request{
					Op: blockdev.OpRead, Off: lba * blockdev.PageSize, Len: blockdev.PageSize,
				})
			}
			if !errors.Is(err, ErrDataLoss) {
				t.Fatalf("%s over a double fault: %v, want ErrDataLoss", name, err)
			}
		})
	}
}

// TestDoubleFaultCleanFallsBackToPrimary is the clean half under PC: the
// same two pages cannot be vouched for, so a host read refetches them from
// primary, and a copy round drops them instead of carrying a rebuilt guess
// forward. A rebuild of the failed column drops the page on it, and the
// expected tag it writes there lets the corrupt page's stripe repair it.
// Either way the next read serves primary's tag.
func TestDoubleFaultCleanFallsBackToPrimary(t *testing.T) {
	for _, name := range []string{"read", "reclaim", "rebuild"} {
		t.Run(name, func(t *testing.T) {
			e := newEnv(t, func(c *Config) { c.Parity = PC })
			onFailed, corrupt := stripeFault(e, false)
			refetched := []int64{onFailed, corrupt}
			switch name {
			case "rebuild":
				e.replace(0, newSSD())
				if err := e.rebuildSteps(); err != nil {
					t.Fatal(err)
				}
				refetched = refetched[:1]
				primReads := e.prim.Stats().ReadOps
				e.read(corrupt, 1)
				if e.prim.Stats().ReadOps != primReads {
					t.Fatalf("page %d was refetched, not repaired from its rebuilt stripe", corrupt)
				}
				e.verifies(corrupt)
			case "reclaim":
				moved, err := e.reclaimOldest(true)
				if err != nil {
					t.Fatal(err)
				}
				for _, lba := range moved {
					e.verifies(lba)
				}
				for _, lba := range []int64{onFailed, corrupt} {
					if _, ok := e.cache.mapping.get(lba); ok {
						t.Fatalf("the copy round kept page %d, which it cannot vouch for", lba)
					}
				}
			}
			for _, lba := range refetched {
				primReads := e.prim.Stats().ReadOps
				e.read(lba, 1)
				if e.prim.Stats().ReadOps == primReads {
					t.Fatalf("page %d was not refetched from primary", lba)
				}
				e.verifies(lba)
			}
			e.checkInvariants()
		})
	}
}

// TestRebuildWritesNothingOverAnUnreadableSurvivor: a parity column is
// rebuilt while a survivor holds a latent error under a dirty page. The
// survivors cannot all be read, and the tags of one that cannot prove
// nothing, so the step fails, writes nothing and keeps the segment queued.
// The dirty page, whose stripe lacks its parity, then reads as ErrDataLoss
// instead of being reconstructed through a parity built from its own tag.
func TestRebuildWritesNothingOverAnUnreadableSurvivor(t *testing.T) {
	e := newEnv(t, nil)
	c := e.cache
	fillDirtySegments(e, 1)
	if _, err := c.Flush(e.at); err != nil {
		t.Fatal(err)
	}
	en, ok := c.mapping.get(0)
	if !ok || en.state != stateSSDDirty {
		t.Fatal("page 0 is not dirty on the SSDs")
	}
	sg, seg, col, _ := c.lay.split(en.loc)
	parity := int(c.groups[sg].segParity[seg])
	e.ssds[parity].Fail()
	e.replace(parity, newSSD())
	_, off := c.lay.devOffset(c.cfg, en.loc)
	e.ssds[col].InjectUnreadable(off / blockdev.PageSize)
	if err := e.rebuildSteps(); err == nil {
		t.Fatalf("parity column %d rebuilt over survivor %d's unreadable page", parity, col)
	}
	if e.cache.State(nil).RebuildRemaining == 0 {
		t.Fatal("the rebuild dequeued the segment it could not read")
	}
	_, err := c.Submit(e.at, blockdev.Request{Op: blockdev.OpRead, Off: 0, Len: blockdev.PageSize})
	if !errors.Is(err, ErrDataLoss) {
		t.Fatalf("read of the unreadable dirty page: %v, want ErrDataLoss", err)
	}
	e.checkInvariants()
}

// TestRebuildKeepsDroppedCleanPageRecord: a rebuild drops a clean page its
// stripe cannot reconstruct, but the rebuilt column keeps the page's
// summary entry, with primary's tag. Here the page also has an older record
// in an unreclaimed group. gc never leaves that state: it destages only the
// oldest group, so every older record is gone first. The test forces the
// destage gc would refuse (reclaimGroup on Greedy's pick, which is newer
// than the group holding version 1), and a read fills the destaged pages
// back clean. The rebuild must not lean on gc's destruction order either:
// it keeps every entry the column held, so after a crash recovery maps the
// rebuilt column's record, not the older one.
func TestRebuildKeepsDroppedCleanPageRecord(t *testing.T) {
	e := newEnv(t, func(c *Config) { c.Parity = PC; c.Victim = Greedy })
	c := e.cache
	segPages := int64(c.dirtyBuf.Cap())
	e.write(0, c.lay.segsPerSG*segPages) // version 1 fills the first group
	old := make(map[int64]int)           // page -> column of its version-1 record
	hot := 8 * segPages
	for lba := range hot {
		col, _, _ := c.Locate(lba)
		old[lba] = col
	}
	// Rewrite the hot pages until they fill the second group, and close it
	// with one segment of other pages. It holds few valid pages, the first
	// group many, so Greedy picks it.
	for range c.lay.segsPerSG / 8 {
		e.write(0, hot)
	}
	e.write(c.lay.segsPerSG*segPages, segPages)
	victim := c.pickVictim()
	if victim == c.fifo[0] {
		t.Fatal("Greedy picked the group holding the version-1 records")
	}
	if moved, err := e.reclaimGroup(victim, false); err != nil || int64(len(moved)) != hot {
		t.Fatalf("the round destaged %d pages (%v), want the %d hot ones", len(moved), err, hot)
	}
	e.read(0, hot) // primary's copies of the destaged pages, filled clean
	if _, err := c.Flush(e.at); err != nil {
		t.Fatal(err)
	}
	// A clean page on column 0 whose version-1 record is on another column,
	// with a partner in its stripe to corrupt.
	target, partner := int64(-1), int64(-1)
	for lba := int64(0); lba < hot && target < 0; lba++ {
		en, ok := c.mapping.get(lba)
		if !ok || en.state != stateSSDClean || en.col != 0 || old[lba] == 0 {
			continue
		}
		sg, seg, _, pic := c.lay.split(en.loc)
		for col := 1; col < c.lay.m; col++ {
			if packed := c.groups[sg].slots[c.lay.localSlot(c.lay.loc(sg, seg, col, pic))]; packed != slotFree {
				target = lba
				partner, _ = unpackSlot(packed)
				break
			}
		}
	}
	if target < 0 {
		t.Fatal("no clean page on column 0 with its older record elsewhere and a stripe partner")
	}
	want := c.versions[target]
	e.ssds[0].Fail()
	e.corruptOnSSD(partner)
	e.replace(0, newSSD())
	if err := e.rebuildSteps(); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := c.Locate(target); ok {
		t.Fatalf("the rebuild kept page %d, which its stripe cannot reconstruct", target)
	}
	for _, d := range e.ssds {
		d.Content().Crash()
	}
	if _, err := c.Recover(); err != nil {
		t.Fatal(err)
	}
	if v, ok := c.CachedVersion(target); ok && v != want {
		t.Fatalf("page %d recovered at version %d, primary holds version %d", target, v, want)
	}
	e.checkInvariants()
}

// TestReclaimDuringRebuildCountsNoCorruption reclaims a group while the
// replaced column still awaits its rebuild. The fresh device holds no tags
// there yet, so the round reads that column by reconstruction: nothing is
// corrupt, and every destaged page reaches primary intact.
func TestReclaimDuringRebuildCountsNoCorruption(t *testing.T) {
	e := newEnv(t, nil)
	c := e.cache
	e.write(0, (c.lay.segsPerSG+1)*int64(c.dirtyBuf.Cap()))
	if _, err := c.Flush(e.at); err != nil {
		t.Fatal(err)
	}
	e.ssds[1].Fail()
	e.replace(1, newSSD())
	moved, err := e.reclaimOldest(false)
	if err != nil {
		t.Fatal(err)
	}
	if st := c.State(nil).Repair; st.CorruptionsDetected != 0 || st.CorruptionsRepaired != 0 {
		t.Fatalf("reclaim during a rebuild counted %d corruptions and %d repairs, want none",
			st.CorruptionsDetected, st.CorruptionsRepaired)
	}
	if len(moved) == 0 {
		t.Fatal("the round moved nothing")
	}
	for _, lba := range moved {
		e.verifies(lba)
	}
	e.checkInvariants()
}

// TestRecoveryRoundTripUnderLoad crashes mid-workload and verifies the
// recovered state passes the invariant checks and serves correct content.
func TestRecoveryRoundTripUnderLoad(t *testing.T) {
	e := newEnv(t, nil)
	rng := rand.New(rand.NewSource(9))
	span := int64(4000)
	var flushedAt vtime.Time
	versionAtFlush := make(map[int64]uint64)
	versions := make(map[int64]uint64)
	for i := 0; i < 8000; i++ {
		lba := rng.Int63n(span)
		e.write(lba, 1)
		versions[lba]++
		if i == 6000 {
			if _, err := e.cache.Flush(e.at); err != nil {
				t.Fatal(err)
			}
			flushedAt = e.at
			for k, v := range versions {
				versionAtFlush[k] = v
			}
		}
	}
	_ = flushedAt
	for _, d := range e.ssds {
		d.Content().Crash()
	}
	if _, err := e.cache.Recover(); err != nil {
		t.Fatal(err)
	}
	e.checkInvariants()
	// Every page cached at recovery must carry a version that existed
	// at some durable point (<= its version at the final write, >= its
	// version at flush time if it was flushed while on SSD). We check the
	// weaker, precise property: the content matches the recovered version
	// bookkeeping.
	checked := 0
	for lba := range mapped(e.cache) {
		got, _, err := e.cache.ReadCheck(e.at, lba)
		if err != nil {
			t.Fatalf("ReadCheck(%d): %v", lba, err)
		}
		v := e.cache.versions[lba]
		if v > 0 && got != blockdev.DataTag(lba, v) {
			t.Fatalf("page %d: content does not match recovered version %d", lba, v)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("nothing recovered")
	}
	_ = versionAtFlush
}

// TestDegradedRunRefetchRegression guards the degraded read path against
// the location-vs-LBA confusion: a multi-page clean run on a failed drive
// must refetch cleanly even when the run's *location* numerically aliases
// some unrelated dirty page's LBA.
func TestDegradedRunRefetchRegression(t *testing.T) {
	e := newEnv(t, nil)
	// Dirty pages at low LBAs, so low location values alias dirty LBAs.
	for lba := int64(0); lba < 200; lba++ {
		e.write(lba, 1)
	}
	// Clean pages at high LBAs via a large miss fill.
	base := int64(8000)
	e.read(base, 64)
	// Find a contiguous clean run (>= 2 pages) on one column.
	var runLBA int64 = -1
	var runCol int
	for lba := base; lba < base+62; lba++ {
		a, okA := e.cache.mapping.get(lba)
		b, okB := e.cache.mapping.get(lba + 1)
		if !okA || !okB || a.state != stateSSDClean || b.state != stateSSDClean {
			continue
		}
		if b.loc == a.loc+1 {
			colA, _ := e.cache.lay.devOffset(e.cache.cfg, a.loc)
			runLBA, runCol = lba, colA
			break
		}
	}
	if runLBA < 0 {
		t.Skip("no contiguous clean run at this geometry")
	}
	e.ssds[runCol].Fail()
	primReads := e.prim.Stats().ReadOps
	done, err := e.cache.Submit(e.at, blockdev.Request{
		Op: blockdev.OpRead, Off: runLBA * blockdev.PageSize, Len: 2 * blockdev.PageSize,
	})
	if err != nil {
		t.Fatalf("degraded clean run read: %v", err)
	}
	e.at = vtime.Max(e.at, done)
	if e.prim.Stats().ReadOps == primReads {
		t.Fatal("run not refetched from primary")
	}
	e.checkInvariants()
}

// FuzzCheckedRead plants silent corruption, latent sector errors and at most
// one fail-stop, optionally replaced by a fresh device whose rebuild is left
// pending, on a small TrackContent RAID-5 cache (PC or NPC), then issues
// host reads and reclaim rounds, and at the end finishes the rebuild and
// reads back every page the setup wrote dirty. Each read either reports ErrDataLoss or
// leaves every page of its range that is still on the SSDs verifying, so a
// ReadCheck right after counts no new corruption. Each round runs on the
// oldest closed group and either reports ErrDataLoss or leaves every page
// it took out of the group verifying where it now lives. The input is a
// parity byte and (op, arg) pairs: op%5 picks corrupt, latent error,
// fail-stop (and replace, when op/5 is odd), read (op/5%8+1 pages) or
// reclaim (S2S when op/5 is odd, else S2D).
func FuzzCheckedRead(f *testing.F) {
	f.Add(byte(0), []byte{0, 3, 3, 0, 8, 3})                    // corrupt a dirty page, read it
	f.Add(byte(0), []byte{0, 120, 1, 120, 38, 112})             // corrupt + latent on a clean page
	f.Add(byte(1), []byte{0, 130, 2, 1, 38, 128, 3, 0})         // PC: corrupt, fail a column, read
	f.Add(byte(1), []byte{1, 5, 0, 6, 2, 2, 38, 0, 38, 200})    // latent, corrupt, fail-stop, reads
	f.Add(byte(0), []byte{0, 4, 0, 5, 0, 150, 0, 151, 38, 144}) // several corruptions in a run
	f.Add(byte(0), []byte{2, 0, 0, 3, 4, 0})                    // double fault under a dirty page, S2D round
	f.Add(byte(1), []byte{2, 0, 0, 102, 9, 0, 38, 96})          // PC: double fault under a clean page, S2S round, reads
	f.Add(byte(0), []byte{7, 1, 9, 0, 3, 0})                    // replace a column, S2S round while its rebuild is pending
	f.Add(byte(1), []byte{1, 2, 4, 0})                          // latent error under a moved page, S2D round
	f.Add(byte(0), []byte{0, 3, 7, 0})                          // double fault under a dirty page, then replace its column
	f.Fuzz(func(t *testing.T, mode byte, ops []byte) {
		if len(ops) > 256 {
			return
		}
		const span = 256
		e := newEnv(t, func(c *Config) {
			if mode&1 == 1 {
				c.Parity = PC
			}
		})
		e.write(0, 96)   // dirty, parity-protected
		e.read(100, 156) // clean fills
		e.write(40, 8)   // rewrites leave stale slots behind
		if _, err := e.cache.Flush(e.at); err != nil {
			t.Fatal(err)
		}
		// Close the first group, so reclaim has one to take.
		for lba := int64(span); len(e.cache.fifo) == 0; lba += 8 {
			e.read(lba, 8)
		}
		failed := false
		for i := 0; i+1 < len(ops); i += 2 {
			op, lba := ops[i], int64(ops[i+1])%span
			switch op % 5 {
			case 0, 1:
				col, page, ok := e.cache.Locate(lba)
				if !ok {
					continue
				}
				if op%5 == 0 {
					if err := e.ssds[col].Content().Corrupt(page); err != nil {
						t.Fatal(err)
					}
				} else {
					e.ssds[col].InjectUnreadable(page)
				}
			case 2:
				if failed {
					continue
				}
				col := int(lba % int64(len(e.ssds)))
				e.ssds[col].Fail()
				failed = true
				if op/5%2 == 1 {
					e.replace(col, newSSD())
				}
			case 3:
				n := 1 + int64(op/5)%8
				done, err := e.cache.Submit(e.at, blockdev.Request{
					Op: blockdev.OpRead, Off: lba * blockdev.PageSize, Len: n * blockdev.PageSize,
				})
				if errors.Is(err, ErrDataLoss) {
					return
				}
				if err != nil {
					t.Fatalf("read [%d,%d): %v", lba, lba+n, err)
				}
				e.at = vtime.Max(e.at, done)
				for p := lba; p < lba+n; p++ {
					if _, _, ok := e.cache.Locate(p); !ok {
						continue
					}
					before := e.cache.State(nil).Repair.CorruptionsDetected
					if _, done, err = e.cache.ReadCheck(e.at, p); err != nil {
						t.Fatalf("page %d after read [%d,%d): %v", p, lba, lba+n, err)
					}
					if e.cache.State(nil).Repair.CorruptionsDetected != before {
						t.Fatalf("page %d after read [%d,%d) still corrupt", p, lba, lba+n)
					}
					e.at = vtime.Max(e.at, done)
				}
			default:
				if len(e.cache.fifo) == 0 {
					continue
				}
				moved, err := e.reclaimOldest(op/5%2 == 1)
				if errors.Is(err, ErrDataLoss) {
					return
				}
				if err != nil {
					t.Fatalf("reclaim: %v", err)
				}
				for _, p := range moved {
					e.verifies(p)
				}
			}
		}
		// Finish a pending rebuild. Every page the setup wrote dirty then
		// reads back at its version or reports ErrDataLoss, never as
		// primary's older copy.
		if err := e.rebuildSteps(); err != nil && !errors.Is(err, ErrDataLoss) {
			t.Fatalf("rebuild: %v", err)
		}
		for p := range int64(96) {
			done, err := e.cache.Submit(e.at, blockdev.Request{
				Op: blockdev.OpRead, Off: p * blockdev.PageSize, Len: blockdev.PageSize,
			})
			if errors.Is(err, ErrDataLoss) {
				continue
			}
			if err != nil {
				t.Fatalf("dirty page %d after the rebuild: %v", p, err)
			}
			e.at = vtime.Max(e.at, done)
			e.verifies(p)
		}
		e.checkInvariants()
	})
}
