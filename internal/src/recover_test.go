package src

import (
	"testing"

	"srccache/internal/blockdev"
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
