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
	tag, err := e.cache.ReconstructTag(e.cache.mapping.entries[target].loc)
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
	e.ssds[1].Repair()
	// Model replacement: the new drive is empty.
	if err := e.ssds[1].Content().Trim(0, testSSDCap/blockdev.PageSize); err != nil {
		t.Fatal(err)
	}
	e.ssds[1].Content().FlushContent()

	done, err := e.cache.RebuildSSD(e.at, 1)
	if err != nil {
		t.Fatal(err)
	}
	if done <= e.at {
		t.Fatal("rebuild free of charge")
	}
	for _, lba := range onDrive {
		got, _, err := e.cache.ReadCheck(done, lba)
		if err != nil {
			t.Fatalf("ReadCheck(%d) after rebuild: %v", lba, err)
		}
		if got != blockdev.DataTag(lba, 1) {
			t.Fatalf("page %d content wrong after rebuild", lba)
		}
	}
	if _, err := e.cache.RebuildSSD(e.at, 9); err == nil {
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
