package src

import (
	"errors"
	"testing"

	"srccache/internal/blockdev"
	"srccache/internal/vtime"
)

// findDirtyOn locates a dirty on-SSD page whose column is col.
func findDirtyOn(e *env, col int, maxLBA int64) (lba, page int64) {
	for lba := int64(0); lba < maxLBA; lba++ {
		en, ok := e.cache.mapping.get(lba)
		if !ok || en.state != stateSSDDirty {
			continue
		}
		if c, off := e.cache.lay.devOffset(e.cache.cfg, en.loc); c == col {
			return lba, off / blockdev.PageSize
		}
	}
	return -1, -1
}

// fillDirtySegments writes n full dirty segments and returns the pages per
// segment.
func fillDirtySegments(e *env, n int64) int64 {
	capPages := int64(e.cache.dirtyBuf.Cap())
	for lba := int64(0); lba < n*capPages; lba++ {
		e.write(lba, 1)
	}
	return capPages
}

func TestTransientRetryCorrects(t *testing.T) {
	e := newEnv(t, nil)
	capPages := fillDirtySegments(e, 1)
	target, _ := findDirtyOn(e, 0, capPages)
	if target < 0 {
		t.Fatal("no dirty page on ssd 0")
	}
	e.ssds[0].InjectTransient(2)
	e.read(target, 1) // must succeed on the third attempt
	st := e.cache.State(nil).Repair
	if st.TransientErrors != 2 || st.Retries != 2 {
		t.Fatalf("stats %+v, want 2 transients corrected by 2 retries", st)
	}
	if n := e.cache.State(nil).Columns[0].Errors; n != 1 {
		t.Fatalf("budget charge %d, want 1 (corrected errors count once, md-style)", n)
	}
	if e.cache.State(nil).Columns[0].Down {
		t.Fatal("corrected transient escalated the column")
	}
}

func TestTransientExhaustionFallsBackDegraded(t *testing.T) {
	e := newEnv(t, nil)
	capPages := fillDirtySegments(e, 1)
	target, _ := findDirtyOn(e, 0, capPages)
	if target < 0 {
		t.Fatal("no dirty page on ssd 0")
	}
	// retryLimit is 3: initial try + 3 retries = 4 failures.
	e.ssds[0].InjectTransient(4)
	before := e.ssds[1].Stats().ReadOps
	e.read(target, 1)
	if e.ssds[1].Stats().ReadOps == before {
		t.Fatal("exhausted retries did not fall back to parity reconstruction")
	}
	st := e.cache.State(nil).Repair
	if st.TransientErrors != 4 || st.Retries != 3 {
		t.Fatalf("stats %+v, want 4 transients / 3 retries", st)
	}
	if n := e.cache.State(nil).Columns[0].Errors; n != 1 {
		t.Fatalf("budget charge %d, want 1", n)
	}
	e.checkInvariants()
}

func TestUnreadableRepairedInPlaceFromParity(t *testing.T) {
	e := newEnv(t, nil)
	capPages := fillDirtySegments(e, 1)
	target, page := findDirtyOn(e, 0, capPages)
	if target < 0 {
		t.Fatal("no dirty page on ssd 0")
	}
	e.ssds[0].InjectUnreadable(page)
	before := e.ssds[1].Stats().ReadOps
	e.read(target, 1)
	if e.ssds[1].Stats().ReadOps == before {
		t.Fatal("latent error repair did not read the survivors")
	}
	if n := e.ssds[0].UnreadablePages(); n != 0 {
		t.Fatalf("latent error not cleared by repair rewrite: %d pages still bad", n)
	}
	st := e.cache.State(nil).Repair
	if st.UnreadableErrors != 1 || st.RepairedPages != 1 {
		t.Fatalf("stats %+v, want 1 unreadable / 1 repaired", st)
	}
	// The repaired page reads directly now.
	survReads := e.ssds[1].Stats().ReadOps
	e.read(target, 1)
	if e.ssds[1].Stats().ReadOps != survReads {
		t.Fatal("repaired page still reads degraded")
	}
	// The content is still the written version.
	got, _, err := e.cache.ReadCheck(e.at, target)
	if err != nil {
		t.Fatal(err)
	}
	if got != blockdev.DataTag(target, 1) {
		t.Fatalf("repaired page tag %v, want version 1", got)
	}
	e.checkInvariants()
}

func TestUnreadableCleanNPCRefetches(t *testing.T) {
	e := newEnv(t, nil)
	capPages := int64(e.cache.cleanBuf.Cap())
	e.read(0, capPages)
	e.read(capPages, capPages)
	var target, page int64 = -1, -1
	for lba := int64(0); lba < 2*capPages; lba++ {
		en, ok := e.cache.mapping.get(lba)
		if !ok || en.state != stateSSDClean {
			continue
		}
		if col, off := e.cache.lay.devOffset(e.cache.cfg, en.loc); col == 2 {
			target, page = lba, off/blockdev.PageSize
			break
		}
	}
	if target < 0 {
		t.Skip("no clean on-SSD page on ssd 2 at this geometry")
	}
	e.ssds[2].InjectUnreadable(page)
	primReads := e.prim.Stats().ReadOps
	if lat := e.read(target, 1); lat < vtime.Millisecond {
		t.Fatalf("parityless latent-error refetch latency %v, want at least the 1 ms primary device", lat)
	}
	if e.prim.Stats().ReadOps == primReads {
		t.Fatal("parityless latent error did not refetch from primary")
	}
	e.checkInvariants()
}

func TestErrorBudgetEscalatesColumn(t *testing.T) {
	e := newEnv(t, func(c *Config) { c.ErrorBudget = 1 })
	capPages := fillDirtySegments(e, 1)
	target, page := findDirtyOn(e, 0, capPages)
	if target < 0 {
		t.Fatal("no dirty page on ssd 0")
	}
	e.ssds[0].InjectUnreadable(page)
	e.read(target, 1) // the single budget error escalates column 0
	if !e.cache.State(nil).Columns[0].Down {
		t.Fatal("budget exhaustion did not escalate the column")
	}
	if st := e.cache.State(nil).Repair; st.Escalations != 1 {
		t.Fatalf("stats %+v, want 1 escalation", st)
	}
	// The physically healthy but fail-stopped column now serves degraded.
	before := e.ssds[1].Stats().ReadOps
	e.read(target, 1)
	if e.ssds[1].Stats().ReadOps == before {
		t.Fatal("fail-stopped column read did not reconstruct from survivors")
	}
	// Flush must not touch the kicked device.
	flushes := e.ssds[0].Stats().Flushes
	if _, err := e.cache.Flush(e.at); err != nil {
		t.Fatal(err)
	}
	if e.ssds[0].Stats().Flushes != flushes {
		t.Fatal("flush sent to a fail-stopped column")
	}
	// Replacing the column re-admits it with a fresh budget.
	rebuild(t, e, 0, e.ssds[0])
	if col := e.cache.State(nil).Columns[0]; col.Down || col.Errors != 0 {
		t.Fatal("rebuild did not re-admit the column")
	}
	e.checkInvariants()
}

func TestReplaceSSDOnlineRebuild(t *testing.T) {
	e := newEnv(t, nil)
	capPages := fillDirtySegments(e, 6)
	total := 6 * capPages
	if _, err := e.cache.Flush(e.at); err != nil {
		t.Fatal(err)
	}
	var onDrive []int64
	for lba := int64(0); lba < total; lba++ {
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

	// Capacity mismatch is rejected.
	small := blockdev.NewMemDevice(testSSDCap/2, 10*vtime.Microsecond)
	if _, err := e.cache.ReplaceSSD(e.at, 1, small); err == nil {
		t.Fatal("accepted undersized replacement")
	}
	fresh := blockdev.NewFaultPlan(blockdev.NewMemDevice(testSSDCap, 10*vtime.Microsecond))
	done, err := e.cache.ReplaceSSD(e.at, 1, fresh)
	if err != nil {
		t.Fatal(err)
	}
	e.at = vtime.Max(e.at, done)
	st := e.cache.State(nil)
	if st.RebuildColumn != 1 || st.RebuildTotal == 0 || st.RebuildRemaining != st.RebuildTotal {
		t.Fatalf("rebuild of column %d at %d/%d after replace, want column 1 with all to go",
			st.RebuildColumn, st.RebuildRemaining, st.RebuildTotal)
	}
	if _, err := e.cache.ReplaceSSD(e.at, 2, blockdev.NewMemDevice(testSSDCap, 10*vtime.Microsecond)); err == nil {
		t.Fatal("accepted a second concurrent rebuild")
	}

	// Before any rebuild step, a not-yet-rebuilt page must verify through
	// the degraded path (the fresh device holds nothing).
	if got, _, err := e.cache.ReadCheck(e.at, onDrive[0]); err != nil || got != blockdev.DataTag(onDrive[0], 1) {
		t.Fatalf("degraded ReadCheck during rebuild: tag %v err %v", got, err)
	}

	// Interleave foreground reads with rebuild steps. Each step rebuilds
	// at least one segment, and the total stays what the rebuild started
	// with; a read's reclaim may retire segments too.
	segs, served := st.RebuildTotal, 0
	for i, pending := 0, true; pending; i++ {
		if i < len(onDrive) {
			e.read(onDrive[i], 1)
			served++
		}
		left := e.cache.State(st.Columns).RebuildRemaining
		tstep, more, err := e.cache.RebuildStep(e.at)
		if err != nil {
			t.Fatal(err)
		}
		e.at = vtime.Max(e.at, tstep)
		pending = more
		st = e.cache.State(st.Columns)
		if pending && (st.RebuildColumn != 1 || st.RebuildTotal != segs || st.RebuildRemaining >= left) {
			t.Fatalf("step %d: rebuild of column %d at %d/%d, was %d/%d", i,
				st.RebuildColumn, st.RebuildRemaining, st.RebuildTotal, left, segs)
		}
	}
	if served == 0 {
		t.Fatal("no foreground reads interleaved with the rebuild")
	}
	if st.Repair.RebuiltSegments == 0 {
		t.Fatal("no segments rebuilt")
	}
	if st.RebuildColumn != -1 || st.RebuildRemaining != 0 || st.RebuildTotal != 0 {
		t.Fatalf("rebuild of column %d at %d/%d after convergence", st.RebuildColumn, st.RebuildRemaining, st.RebuildTotal)
	}
	// Every page of the replaced column verifies against its written
	// version on the new device.
	for _, lba := range onDrive {
		got, _, err := e.cache.ReadCheck(e.at, lba)
		if err != nil {
			t.Fatalf("ReadCheck(%d) after rebuild: %v", lba, err)
		}
		if got != blockdev.DataTag(lba, 1) {
			t.Fatalf("page %d content wrong after rebuild", lba)
		}
	}
	e.checkInvariants()
}

func TestScrubDetectsAndRepairsCorruption(t *testing.T) {
	e := newEnv(t, nil)
	capPages := fillDirtySegments(e, 2)
	target, page := findDirtyOn(e, 0, 2*capPages)
	if target < 0 {
		t.Fatal("no dirty page on ssd 0")
	}
	if err := e.ssds[0].Content().Corrupt(page); err != nil {
		t.Fatal(err)
	}
	done, err := e.cache.Scrub(e.at)
	if err != nil {
		t.Fatal(err)
	}
	e.at = vtime.Max(e.at, done)
	st := e.cache.State(nil).Repair
	if st.ScrubbedPages == 0 {
		t.Fatal("scrub verified nothing")
	}
	if st.CorruptionsDetected != 1 || st.CorruptionsRepaired != 1 {
		t.Fatalf("stats %+v, want 1 corruption detected and repaired", st)
	}
	got, _, err := e.cache.ReadCheck(e.at, target)
	if err != nil {
		t.Fatal(err)
	}
	if got != blockdev.DataTag(target, 1) {
		t.Fatalf("scrubbed page tag %v, want version 1", got)
	}
	// A second pass is quiet.
	if _, err := e.cache.Scrub(e.at); err != nil {
		t.Fatal(err)
	}
	if st := e.cache.State(nil).Repair; st.CorruptionsDetected != 1 {
		t.Fatalf("second scrub pass found new corruption: %+v", st)
	}
	e.checkInvariants()
}

func TestScrubRequiresTrackContent(t *testing.T) {
	e := newEnv(t, func(c *Config) { c.TrackContent = false })
	if _, err := e.cache.ScrubStep(e.at); err == nil {
		t.Fatal("scrub without TrackContent accepted")
	}
}

// TestDegradedNPCRefetchChargesPrimaryLatency pins the satellite fix: the
// drop-and-refetch path must charge the primary fill at the degraded read's
// virtual time, so the caller sees at least the primary device latency.
func TestDegradedNPCRefetchChargesPrimaryLatency(t *testing.T) {
	e := newEnv(t, nil)
	capPages := int64(e.cache.cleanBuf.Cap())
	e.read(0, capPages)
	e.read(capPages, capPages)
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
	if lat := e.read(target, 1); lat < vtime.Millisecond {
		t.Fatalf("degraded NPC refetch latency %v, want at least the 1 ms primary device", lat)
	}
	e.checkInvariants()
}

// TestRAID0DirtyColumnFailureIsDataLoss covers the parityless-dirty second
// half of the failure matrix: under RAID-0 every segment is parityless, so a
// column failure under dirty data is unrecoverable.
func TestRAID0DirtyColumnFailureIsDataLoss(t *testing.T) {
	e := newEnv(t, func(c *Config) { c.Level = RAID0 })
	capPages := fillDirtySegments(e, 1)
	target, _ := findDirtyOn(e, 0, capPages)
	if target < 0 {
		t.Fatal("no dirty page on ssd 0")
	}
	e.ssds[0].Fail()
	_, err := e.cache.Submit(e.at, blockdev.Request{
		Op: blockdev.OpRead, Off: target * blockdev.PageSize, Len: blockdev.PageSize,
	})
	if !errors.Is(err, ErrDataLoss) {
		t.Fatalf("err = %v, want ErrDataLoss", err)
	}
}

// TestWriteExhaustionAbandonsSegment covers the live-column write failure
// path: a destage write that exhausts the retry budget must not leave the
// segment half-written (raw pages without a summary blob would lose
// flush-acknowledged dirty data at the next crash). The segment is
// abandoned, its pages return to the buffer, and the flush retries them on
// a fresh segment once the fault clears.
func TestWriteExhaustionAbandonsSegment(t *testing.T) {
	e := newEnv(t, nil)
	// A couple of dirty pages, still buffered (buffer not full).
	e.write(10, 1)
	e.write(11, 1)
	// retryLimit is 3: 4 armed faults exhaust one write attempt,
	// then the retried segment write finds the device healthy again.
	e.ssds[0].InjectTransient(4)
	if _, err := e.cache.Flush(e.at); err != nil {
		t.Fatalf("flush after transient exhaustion: %v", err)
	}
	if e.cache.State(nil).Repair.TransientErrors < 4 {
		t.Fatal("fault never fired: scenario did not exercise exhaustion")
	}
	for _, lba := range []int64{10, 11} {
		if en, ok := e.cache.mapping.get(lba); !ok || en.state != stateSSDDirty {
			t.Fatalf("lba %d not destaged after retried flush", lba)
		}
	}
	// The acknowledged data must survive a crash.
	for _, d := range e.ssds {
		d.Content().Crash()
	}
	if _, err := e.cache.Recover(); err != nil {
		t.Fatalf("recover: %v", err)
	}
	for _, lba := range []int64{10, 11} {
		if !cachedDirty(e.cache, lba) {
			t.Fatalf("lba %d lost across crash despite acknowledged flush", lba)
		}
	}
	e.checkInvariants()
}

// TestFlushRefusesFalseDurabilityAck: when a live device keeps rejecting
// writes past the drain's retry bound, Flush must fail rather than
// acknowledge durability it cannot provide — and the data must stay cached
// so a later flush can still land it.
func TestFlushRefusesFalseDurabilityAck(t *testing.T) {
	e := newEnv(t, func(c *Config) { c.ErrorBudget = 1 << 30 })
	e.write(10, 1)
	// 8 abandoned attempts x 4 submissions each = 32 faults consumed per
	// flush; 40 outlasts the first flush's bound but not the second's.
	e.ssds[0].InjectTransient(40)
	if _, err := e.cache.Flush(e.at); err == nil {
		t.Fatal("flush acknowledged durability while every destage failed")
	}
	if !cachedDirty(e.cache, 10) {
		t.Fatal("failed flush dropped the dirty page")
	}
	if _, err := e.cache.Flush(e.at); err != nil {
		t.Fatalf("flush after faults drained: %v", err)
	}
	for _, d := range e.ssds {
		d.Content().Crash()
	}
	if _, err := e.cache.Recover(); err != nil {
		t.Fatalf("recover: %v", err)
	}
	if !cachedDirty(e.cache, 10) {
		t.Fatal("lba 10 lost across crash despite acknowledged flush")
	}
	e.checkInvariants()
}

// TestHardFailureFailStopsColumn: a device that answers ErrDeviceFailed
// (not transient, not unreadable) never touched the error budget, so its
// column stayed live and writeSegment abandoned every segment forever —
// burning a segment per attempt while all writes piled up in RAM. The first
// hard answer must fail-stop the column so segments are written degraded.
func TestHardFailureFailStopsColumn(t *testing.T) {
	e := newEnv(t, nil)
	c := e.cache
	e.ssds[1].Fail()
	capPages := int64(c.dirtyBuf.Cap())
	freeBefore := c.State(nil).FreeGroups
	for lba := int64(0); lba < 10*capPages; lba++ {
		e.write(lba, 1)
		// No abandoned write, so no overshoot outlives the request.
		if n := int64(c.State(nil).DirtyBufferedPages); n > capPages {
			t.Fatalf("after page %d: %d dirty pages buffered, one segment is %d", lba, n, capPages)
		}
	}
	if got := c.State(nil).Repair.Escalations; got != 1 {
		t.Fatalf("Escalations = %d, want 1", got)
	}
	if !c.State(nil).Columns[1].Down {
		t.Fatal("hard-failed ssd 1 is still a live column")
	}
	if c.State(nil).FreeGroups >= freeBefore {
		t.Fatalf("free groups %d -> %d: no segment was written degraded", freeBefore, c.State(nil).FreeGroups)
	}
	if c.active < 0 || c.nextSeg != 10 {
		t.Fatalf("active group %d at segment %d, want ten segments written, none burnt", c.active, c.nextSeg)
	}
	if _, err := e.cache.Flush(e.at); err != nil {
		t.Fatalf("flush on the degraded array: %v", err)
	}
	// Every page is on the array and reads back through reconstruction.
	for lba := int64(0); lba < 10*capPages; lba++ {
		if en, ok := c.mapping.get(lba); !ok || en.state != stateSSDDirty {
			t.Fatalf("lba %d not on the array after flush", lba)
		}
		if _, _, err := c.ReadCheck(e.at, lba); err != nil {
			t.Fatalf("degraded read of lba %d: %v", lba, err)
		}
	}
	e.checkInvariants()
}

// TestReplaceSSDCommitsItsStamp checks ReplaceSSD's contract: the fresh
// member's superblock is durable when the call returns, so a crash right
// after it, which drops the device's volatile cache, still leaves a
// superblock that parses.
func TestReplaceSSDCommitsItsStamp(t *testing.T) {
	e := newEnv(t, nil)
	e.ssds[1].Fail()
	fresh := blockdev.NewMemDevice(testSSDCap, 10*vtime.Microsecond)
	if _, err := e.cache.ReplaceSSD(e.at, 1, fresh); err != nil {
		t.Fatal(err)
	}
	fresh.Content().Crash()
	blob, err := fresh.Content().ReadBlob(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := parseSuperblock(blob); err != nil {
		t.Fatalf("superblock after a crash right after ReplaceSSD: %v", err)
	}
}
