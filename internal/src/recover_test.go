package src

import (
	"testing"

	"srccache/internal/blockdev"
	"srccache/internal/vtime"
)

// recoveryEnv builds a cache with three flushed segments' worth of dirty
// writes and then crashes the devices, leaving only durable state behind —
// the starting point of every recovery scenario.
func recoveryEnv(t *testing.T) *env {
	t.Helper()
	e := newEnv(t, nil)
	capPages := int64(e.cache.dirtyBuf.Cap())
	for lba := int64(0); lba < 3*capPages; lba++ {
		e.write(lba, 1)
	}
	if _, err := e.cache.Flush(e.at); err != nil {
		t.Fatal(err)
	}
	for _, d := range e.ssds {
		d.Content().Crash()
	}
	return e
}

// metaPages returns the page indices of the MS and ME summary blocks of
// the first sealed segment (group 1, segment 0) — the same offset on every
// SSD — and asserts the MS block really holds a summary blob.
func metaPages(t *testing.T, e *env) (ms, me int64) {
	t.Helper()
	c := e.cache
	ms = c.lay.colOffset(c.cfg, 1, 0) / blockdev.PageSize
	me = ms + c.lay.pagesPerCol - 1
	blob, err := e.ssds[0].Content().ReadBlob(ms)
	if err != nil {
		t.Fatal(err)
	}
	if blob == nil {
		t.Fatal("no MS summary at group 1 segment 0; geometry assumption broken")
	}
	return ms, me
}

// TestRecoverMetadataFaults table-drives Recover against truncated and
// corrupted MS/ME metadata blocks (paper §4.1): a column whose summary is
// missing, fails its checksum, or disagrees between MS and ME generations
// is dropped while intact columns survive; a segment with no surviving
// column disappears entirely.
func TestRecoverMetadataFaults(t *testing.T) {
	// Intact baseline: segment and page counts every fault case is
	// compared against. The workload is deterministic, so a fresh env
	// reproduces these numbers exactly.
	e := recoveryEnv(t)
	baseSegs, err := e.cache.Recover()
	if err != nil {
		t.Fatal(err)
	}
	basePages := e.cache.mapping.count()
	if baseSegs < 2 || basePages == 0 {
		t.Fatalf("baseline too small to discriminate: %d segments, %d pages", baseSegs, basePages)
	}

	tests := []struct {
		name string
		// mutate damages durable metadata of segment (1,0); ms/me are
		// its summary page indices.
		mutate func(e *env, ms, me int64) error
		// wantSegs is the expected Recover count; wantPagesDrop reports
		// whether mapped pages must shrink versus the intact baseline.
		wantSegs      int
		wantPagesDrop bool
	}{
		{
			name:     "intact metadata recovers everything",
			mutate:   func(e *env, ms, me int64) error { return nil },
			wantSegs: baseSegs,
		},
		{
			name: "MS checksum mismatch drops the column",
			mutate: func(e *env, ms, me int64) error {
				return e.ssds[0].Content().Corrupt(ms)
			},
			wantSegs:      baseSegs,
			wantPagesDrop: true,
		},
		{
			name: "truncated MS drops the column",
			mutate: func(e *env, ms, me int64) error {
				return e.ssds[0].Content().Trim(ms, 1)
			},
			wantSegs:      baseSegs,
			wantPagesDrop: true,
		},
		{
			name: "ME checksum mismatch drops the column",
			mutate: func(e *env, ms, me int64) error {
				return e.ssds[0].Content().Corrupt(me)
			},
			wantSegs:      baseSegs,
			wantPagesDrop: true,
		},
		{
			name: "truncated ME drops the column",
			mutate: func(e *env, ms, me int64) error {
				return e.ssds[0].Content().Trim(me, 1)
			},
			wantSegs:      baseSegs,
			wantPagesDrop: true,
		},
		{
			name: "every column torn drops the whole segment",
			mutate: func(e *env, ms, me int64) error {
				for _, d := range e.ssds {
					if err := d.Content().Corrupt(ms); err != nil {
						return err
					}
				}
				return nil
			},
			wantSegs:      baseSegs - 1,
			wantPagesDrop: true,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			e := recoveryEnv(t)
			ms, me := metaPages(t, e)
			if err := tt.mutate(e, ms, me); err != nil {
				t.Fatal(err)
			}
			segs, err := e.cache.Recover()
			if err != nil {
				t.Fatal(err)
			}
			if segs != tt.wantSegs {
				t.Fatalf("recovered %d segments, want %d", segs, tt.wantSegs)
			}
			pages := e.cache.mapping.count()
			if tt.wantPagesDrop && pages >= basePages {
				t.Fatalf("recovered %d pages, want fewer than intact %d", pages, basePages)
			}
			if !tt.wantPagesDrop && pages != basePages {
				t.Fatalf("recovered %d pages, want %d", pages, basePages)
			}
			e.checkInvariants()
			// Whatever survived must verify against its checksum.
			for lba := range mapped(e.cache) {
				if _, _, err := e.cache.ReadCheck(e.at, lba); err != nil {
					t.Fatalf("ReadCheck(%d) after recovery: %v", lba, err)
				}
			}
		})
	}
}

// TestRecoverCombinedMetadataFaults pairs a torn MS blob with a
// silently-corrupted ME twin on the same column — the two sandwich halves
// failing in different ways at once. The column must contribute nothing
// (neither half can vouch for the other), while the segment still recovers
// from the intact columns' consistent generation; when every column
// carries the compound fault, the segment is discarded whole rather than
// partially resurrected.
func TestRecoverCombinedMetadataFaults(t *testing.T) {
	base := recoveryEnv(t)
	baseSegs, err := base.cache.Recover()
	if err != nil {
		t.Fatal(err)
	}
	basePages := base.cache.mapping.count()

	t.Run("one column", func(t *testing.T) {
		e := recoveryEnv(t)
		ms, me := metaPages(t, e)
		if err := e.ssds[0].Content().Trim(ms, 1); err != nil {
			t.Fatal(err)
		}
		if err := e.ssds[0].Content().Corrupt(me); err != nil {
			t.Fatal(err)
		}
		segs, err := e.cache.Recover()
		if err != nil {
			t.Fatal(err)
		}
		if segs != baseSegs {
			t.Fatalf("recovered %d segments, want %d (survivors' generation wins)", segs, baseSegs)
		}
		if pages := e.cache.mapping.count(); pages >= basePages {
			t.Fatalf("recovered %d pages, want fewer than intact %d", pages, basePages)
		}
		e.checkInvariants()
		for lba := range mapped(e.cache) {
			if _, _, err := e.cache.ReadCheck(e.at, lba); err != nil {
				t.Fatalf("ReadCheck(%d) after recovery: %v", lba, err)
			}
		}
	})

	t.Run("every column", func(t *testing.T) {
		e := recoveryEnv(t)
		ms, me := metaPages(t, e)
		for _, d := range e.ssds {
			if err := d.Content().Trim(ms, 1); err != nil {
				t.Fatal(err)
			}
			if err := d.Content().Corrupt(me); err != nil {
				t.Fatal(err)
			}
		}
		segs, err := e.cache.Recover()
		if err != nil {
			t.Fatal(err)
		}
		if segs != baseSegs-1 {
			t.Fatalf("recovered %d segments, want %d (faulted segment discarded)", segs, baseSegs-1)
		}
		e.checkInvariants()
		for lba := range mapped(e.cache) {
			if _, _, err := e.cache.ReadCheck(e.at, lba); err != nil {
				t.Fatalf("ReadCheck(%d) after recovery: %v", lba, err)
			}
		}
	})
}

// TestRecoverNewestGenerationWins rewrites every page in a second flushed
// epoch: both generations' summaries are durable, and recovery must apply
// them in generation order so the newer version of each LBA wins.
func TestRecoverNewestGenerationWins(t *testing.T) {
	e := newEnv(t, nil)
	capPages := int64(e.cache.dirtyBuf.Cap())
	for lba := int64(0); lba < capPages; lba++ {
		e.write(lba, 1) // version 1
	}
	if _, err := e.cache.Flush(e.at); err != nil {
		t.Fatal(err)
	}
	for lba := int64(0); lba < capPages; lba++ {
		e.write(lba, 1) // version 2 supersedes in a younger segment
	}
	if _, err := e.cache.Flush(e.at); err != nil {
		t.Fatal(err)
	}
	for _, d := range e.ssds {
		d.Content().Crash()
	}
	if _, err := e.cache.Recover(); err != nil {
		t.Fatal(err)
	}
	e.checkInvariants()
	for lba := int64(0); lba < capPages; lba++ {
		if _, ok := e.cache.mapping.get(lba); !ok {
			t.Fatalf("page %d lost", lba)
		}
		got, _, err := e.cache.ReadCheck(e.at, lba)
		if err != nil {
			t.Fatal(err)
		}
		if want := blockdev.DataTag(lba, 2); got != want {
			t.Fatalf("page %d recovered as %v, want newest generation %v", lba, got, want)
		}
	}
}

// summaryAt parses the summary blob at page on ssd col.
func summaryAt(t *testing.T, e *env, col int, page int64) *summary {
	t.Helper()
	blob, err := e.ssds[col].Content().ReadBlob(page)
	if err != nil {
		t.Fatal(err)
	}
	s, err := parseSummary(blob, primaryPages(e.cache.cfg))
	if err != nil {
		t.Fatalf("ssd %d page %d: %v", col, page, err)
	}
	return s
}

// restamp rewrites the summary at page on ssd col with generation gen.
func restamp(t *testing.T, e *env, col int, page, gen int64) {
	t.Helper()
	s := summaryAt(t, e, col, page)
	s.gen = gen
	if err := e.ssds[col].Content().WriteBlob(page, s.marshal()); err != nil {
		t.Fatal(err)
	}
}

// mappedFrom requires every page the MS at ms lists for column col of
// segment (1,0) to be mapped there (want true), or none of them (want
// false).
func mappedFrom(t *testing.T, e *env, ms int64, col int, want bool) {
	t.Helper()
	for i, en := range summaryAt(t, e, col, ms).entries {
		got, ok := e.cache.mapping.get(en.lba)
		if at := ok && got.loc == e.cache.lay.loc(1, 0, col, int64(i)+1); at != want {
			t.Errorf("page %d from ssd %d: mapped there %v, want %v", en.lba, col, at, want)
		}
	}
}

// TestRecoverDropsGenerationMismatch checks the MS/ME sandwich (paper §4.1):
// a column whose ME carries another generation than its MS, each half
// CRC-valid as when a column is torn between two seals, adds no mapping
// after Recover, while the segment's other columns still recover.
func TestRecoverDropsGenerationMismatch(t *testing.T) {
	e := recoveryEnv(t)
	ms, me := metaPages(t, e)
	var payload []int // columns holding pages; the parity column holds none
	for col := range e.ssds {
		if len(summaryAt(t, e, col, ms).entries) > 0 {
			payload = append(payload, col)
		}
	}
	torn, intact := payload[0], payload[1]
	restamp(t, e, torn, me, summaryAt(t, e, torn, ms).gen+1)
	if _, err := e.cache.Recover(); err != nil {
		t.Fatal(err)
	}
	mappedFrom(t, e, ms, torn, false)
	mappedFrom(t, e, ms, intact, true)
	e.checkInvariants()
}

// TestRecoverNewestSealWinsAcrossColumns covers a segment whose columns
// disagree on the generation, as when a crash kept the trim before its
// latest seal on some devices but not on others: the cut-early device still
// holds the previous seal's summaries. The newest seal wins even when the
// scan meets the stale column first: that column adds no mapping, and the
// others all recover.
func TestRecoverNewestSealWinsAcrossColumns(t *testing.T) {
	e := recoveryEnv(t)
	ms, me := metaPages(t, e)
	gen := summaryAt(t, e, 0, ms).gen
	restamp(t, e, 0, ms, gen-1)
	restamp(t, e, 0, me, gen-1)
	if _, err := e.cache.Recover(); err != nil {
		t.Fatal(err)
	}
	for col := range e.ssds {
		mappedFrom(t, e, ms, col, col != 0)
	}
	e.checkInvariants()
}

// TestRecoverUnderASmallerPrimary reassembles the cache over its SSDs with a
// primary too small for some of the pages they hold. The superblock does not
// record the primary's size, so those summaries are CRC-valid: Recover
// rejects them and maps only pages of the volume.
func TestRecoverUnderASmallerPrimary(t *testing.T) {
	e := recoveryEnv(t)
	pages := int64(e.cache.dirtyBuf.Cap()) // recoveryEnv wrote three times as many
	cfg := e.cache.cfg
	cfg.Primary = blockdev.NewMemDevice(pages*blockdev.PageSize, vtime.Millisecond)
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Recover(); err != nil {
		t.Fatal(err)
	}
	if n := c.State(nil).CachedPages; n == 0 || n > int(pages) {
		t.Fatalf("%d pages recovered for a volume of %d", n, pages)
	}
}
