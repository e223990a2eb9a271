package src

import (
	"reflect"
	"testing"
	"testing/quick"

	"srccache/internal/blockdev"
)

func testLayout(t *testing.T) (layout, Config) {
	t.Helper()
	devs := make([]blockdev.Device, 4)
	for i := range devs {
		devs[i] = blockdev.NewMemDevice(testSSDCap, 0)
	}
	cfg, err := Config{
		SSDs:           devs,
		Primary:        blockdev.NewMemDevice(testPrimCap, 0),
		EraseGroupSize: testEGS,
		SegmentColumn:  testSegCol,
	}.Validate()
	if err != nil {
		t.Fatal(err)
	}
	return newLayout(cfg), cfg
}

func TestLayoutLocSplitRoundTrip(t *testing.T) {
	lay, _ := testLayout(t)
	f := func(rawSG, rawSeg uint8, rawCol uint8, rawPic uint8) bool {
		sg := int64(rawSG) % lay.numSG
		seg := int64(rawSeg) % lay.segsPerSG
		col := int(rawCol) % lay.m
		pic := int64(rawPic) % lay.pagesPerCol
		loc := lay.loc(sg, seg, col, pic)
		gsg, gseg, gcol, gpic := lay.split(loc)
		return gsg == sg && gseg == seg && gcol == col && gpic == pic &&
			lay.groupOf(loc) == sg &&
			lay.localSlot(loc) == loc-sg*lay.slotsPerSG()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLayoutDevOffsetsAreUniquePerColumn(t *testing.T) {
	lay, cfg := testLayout(t)
	seen := make(map[[2]int64]bool)
	for sg := int64(0); sg < 2; sg++ {
		for seg := int64(0); seg < lay.segsPerSG; seg++ {
			for col := 0; col < lay.m; col++ {
				for pic := int64(0); pic < lay.pagesPerCol; pic++ {
					loc := lay.loc(sg, seg, col, pic)
					gotCol, off := lay.devOffset(cfg, loc)
					if gotCol != col {
						t.Fatalf("loc %d on col %d, want %d", loc, gotCol, col)
					}
					if off%blockdev.PageSize != 0 || off >= cfg.CachePerSSD {
						t.Fatalf("offset %d out of region", off)
					}
					key := [2]int64{int64(col), off}
					if seen[key] {
						t.Fatalf("offset collision at col %d off %d", col, off)
					}
					seen[key] = true
				}
			}
		}
	}
}

func TestLayoutColumnOffsetsContiguous(t *testing.T) {
	lay, cfg := testLayout(t)
	// Consecutive payload pages within a column map to consecutive device
	// offsets — what makes SRC's reads and writes coalesce.
	for pic := int64(1); pic < lay.pagesPerCol-1; pic++ {
		_, a := lay.devOffset(cfg, lay.loc(1, 3, 2, pic))
		_, b := lay.devOffset(cfg, lay.loc(1, 3, 2, pic+1))
		if b != a+blockdev.PageSize {
			t.Fatalf("pages %d and %d not adjacent (%d, %d)", pic, pic+1, a, b)
		}
	}
	// And the segment's column starts exactly at colOffset.
	_, first := lay.devOffset(cfg, lay.loc(1, 3, 2, 0))
	if first != lay.colOffset(cfg, 1, 3) {
		t.Fatalf("column base %d != colOffset %d", first, lay.colOffset(cfg, 1, 3))
	}
}

func TestPackSlotRoundTrip(t *testing.T) {
	f := func(rawLBA int64, dirty bool) bool {
		lba := rawLBA & ((1 << 62) - 1) // representable range
		gotLBA, gotDirty := unpackSlot(packSlot(lba, dirty))
		return gotLBA == lba && gotDirty == dirty && packSlot(lba, dirty) != slotFree
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestParityColProperties(t *testing.T) {
	const m = 4
	// RAID-4: fixed last column. RAID-5: rotates through all columns with
	// period m. RAID-0: none.
	for abs := int64(0); abs < 3*m; abs++ {
		if got := parityCol(RAID4, m, abs); got != m-1 {
			t.Fatalf("RAID4 parity %d at seg %d", got, abs)
		}
		if got := parityCol(RAID0, m, abs); got != -1 {
			t.Fatalf("RAID0 parity %d", got)
		}
		p := parityCol(RAID5, m, abs)
		if p < 0 || p >= m {
			t.Fatalf("RAID5 parity %d out of range", p)
		}
		if parityCol(RAID5, m, abs) != parityCol(RAID5, m, abs+m) {
			t.Fatal("RAID5 rotation period wrong")
		}
	}
	seen := map[int]bool{}
	for abs := int64(0); abs < m; abs++ {
		seen[parityCol(RAID5, m, abs)] = true
	}
	if len(seen) != m {
		t.Fatalf("RAID5 parity covers %d of %d columns", len(seen), m)
	}
}

func TestSummaryMarshalRoundTrip(t *testing.T) {
	s := &summary{
		kind: kindMS, gen: 42, sg: 3, seg: 17, col: 2, parityCol: 1,
		entries: []summaryEntry{
			{lba: 100, version: 7, dirty: true},
			{lba: 200, version: 1, dirty: false},
		},
	}
	got, err := parseSummary(s.marshal(), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if got.gen != s.gen || got.sg != s.sg || got.seg != s.seg ||
		got.col != s.col || got.parityCol != s.parityCol || len(got.entries) != 2 {
		t.Fatalf("round trip %+v", got)
	}
	for i := range s.entries {
		if got.entries[i] != s.entries[i] {
			t.Fatalf("entry %d: %+v != %+v", i, got.entries[i], s.entries[i])
		}
	}
}

func TestSummaryRejectsCorruption(t *testing.T) {
	s := &summary{kind: kindME, gen: 1, entries: []summaryEntry{{lba: 5, version: 1, dirty: true}}}
	blob := s.marshal()
	for _, mutate := range []func([]byte){
		func(b []byte) { b[0] ^= 0xff },        // magic
		func(b []byte) { b[10] ^= 0x01 },       // body bit flip
		func(b []byte) { b[len(b)-1] ^= 0xff }, // crc
		func(b []byte) { b[4] = 99 },           // kind
	} {
		bad := append([]byte(nil), blob...)
		mutate(bad)
		if _, err := parseSummary(bad, 1<<20); err == nil {
			t.Fatal("corrupt summary accepted")
		}
	}
	if _, err := parseSummary(blob[:10], 1<<20); err == nil {
		t.Fatal("truncated summary accepted")
	}
	if _, err := parseSummary(blob[:len(blob)-8], 1<<20); err == nil {
		t.Fatal("entry-truncated summary accepted")
	}
	if _, err := parseSummary(blob, 5); err == nil {
		t.Fatal("summary naming page 5 accepted for a volume of 5 pages")
	}
}

// FuzzParseSummary feeds arbitrary bytes to the summary parser, the first
// code to read what a crashed drive left behind. No input may panic the
// parse, and whatever it accepts, marshalled again, parses to the same
// summary.
func FuzzParseSummary(f *testing.F) {
	blob := (&summary{
		kind: kindMS, col: 1, parityCol: -1, gen: 9, sg: 2, seg: 5,
		entries: []summaryEntry{{lba: 100, version: 7, dirty: true}, {lba: 3, version: 1}},
	}).marshal()
	f.Add(blob)
	f.Add(blob[:len(blob)-8])                              // torn inside the entries
	f.Add(append(blob[:len(blob)-4:len(blob)-4], blob...)) // a stale tail spliced on
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		if int64(len(b)) > blockdev.PageSize {
			return // a summary blob fills at most a page
		}
		s, err := parseSummary(b, 1<<20)
		if err != nil {
			return
		}
		again, err := parseSummary(s.marshal(), 1<<20)
		if err != nil || !reflect.DeepEqual(again, s) {
			t.Fatalf("round trip of %+v: %+v (%v)", s, again, err)
		}
	})
}

func TestSuperblockMarshalRoundTrip(t *testing.T) {
	sb := &superblock{ssds: 4, eraseGroupSize: testEGS, segmentColumn: testSegCol, numSG: 16}
	got, err := parseSuperblock(sb.marshal())
	if err != nil {
		t.Fatal(err)
	}
	if *got != *sb {
		t.Fatalf("round trip %+v != %+v", got, sb)
	}
	blob := sb.marshal()
	blob[8] ^= 0x01
	if _, err := parseSuperblock(blob); err == nil {
		t.Fatal("corrupt superblock accepted")
	}
	if _, err := parseSuperblock(blob[:10]); err == nil {
		t.Fatal("short superblock accepted")
	}
}
