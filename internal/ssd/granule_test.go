package ssd

import (
	"testing"

	"srccache/internal/blockdev"
	"srccache/internal/vtime"
)

// Tests for the hybrid-FTL write-alignment model (granule.go) and the
// flush barrier.

func write(t *testing.T, d *SSD, at vtime.Time, off, n int64) vtime.Time {
	t.Helper()
	done, err := d.Submit(at, blockdev.Request{Op: blockdev.OpWrite, Off: off, Len: n})
	if err != nil {
		t.Fatalf("write off=%d: %v", off, err)
	}
	return done
}

func TestGranuleSequentialFillNeverMerges(t *testing.T) {
	d := newTestSSD(t, testConfig())
	var at vtime.Time
	for off := int64(0); off < d.Capacity(); off += 256 << 10 {
		at = write(t, d, at, off, 256<<10)
	}
	if d.gcPageCopies != 0 {
		t.Fatalf("sequential fill merged %d pages", d.gcPageCopies)
	}
	if d.liveLogs != 0 {
		t.Fatalf("%d log granules left open after complete sweeps", d.liveLogs)
	}
}

func TestGranuleFullOverwriteIsSwitchMerge(t *testing.T) {
	d := newTestSSD(t, testConfig())
	egs := d.Config().EraseGroupSize
	var at vtime.Time
	at = fill(t, d, 1<<20, at)
	// Whole-granule rewrites, in arbitrary granule order: all free.
	for _, g := range []int64{3, 0, 7, 5} {
		at = write(t, d, at, g*egs, egs)
	}
	if d.gcPageCopies != 0 {
		t.Fatalf("aligned overwrites merged %d pages", d.gcPageCopies)
	}
}

func TestGranuleScatteredWritesMergeOnPoolOverflow(t *testing.T) {
	d := newTestSSD(t, testConfig())
	egs := d.Config().EraseGroupSize
	var at vtime.Time
	at = fill(t, d, 1<<20, at)
	// Mid-granule 4K writes across more granules than the pool holds.
	for g := int64(0); g < logGranules+4; g++ {
		at = write(t, d, at, g*egs+egs/2, blockdev.PageSize)
	}
	if d.gcPageCopies == 0 {
		t.Fatal("pool overflow never merged")
	}
}

func TestGranuleMergeCostScalesWithValidity(t *testing.T) {
	// Scattered writes over a fuller device must copy more than over an
	// emptier one.
	run := func(fillFrac int64) int64 {
		d := newTestSSD(t, testConfig())
		var at vtime.Time
		for off := int64(0); off < d.Capacity()*fillFrac/4; off += 1 << 20 {
			at = write(t, d, at, off, 1<<20)
		}
		// Cycle over twice as many granules as the pool holds, so every
		// write past the first pool-full opens a log and merges another.
		egs := d.Config().EraseGroupSize
		for g := int64(0); g < 4*logGranules; g++ {
			at = write(t, d, at, (g%(2*logGranules))*egs+egs/2+g*blockdev.PageSize, blockdev.PageSize)
		}
		return d.gcPageCopies
	}
	// Full fill: every targeted granule is live; quarter fill: most are
	// empty, so their merges are nearly free.
	if !(run(4) > run(1)) {
		t.Fatal("merge cost does not grow with device validity")
	}
}

func TestGranuleTrimResetsStreaming(t *testing.T) {
	d := newTestSSD(t, testConfig())
	egs := d.Config().EraseGroupSize
	var at vtime.Time
	at = fill(t, d, 1<<20, at)
	// Fragment a granule, then trim it whole: the next sequential rewrite
	// is free again.
	at = write(t, d, at, egs/2, blockdev.PageSize)
	copies := d.gcPageCopies
	done, err := d.Submit(at, blockdev.Request{Op: blockdev.OpTrim, Off: 0, Len: egs})
	if err != nil {
		t.Fatal(err)
	}
	at = done
	at = write(t, d, at, 0, egs)
	if d.gcPageCopies != copies {
		t.Fatalf("post-trim sequential rewrite merged %d pages", d.gcPageCopies-copies)
	}
}

func TestFlushBarrierDelaysSubsequentIO(t *testing.T) {
	d := newTestSSD(t, testConfig())
	ack := write(t, d, 0, 0, 1<<20)
	fd, err := d.Flush(ack)
	if err != nil {
		t.Fatal(err)
	}
	// A read submitted before the flush completes waits for the barrier.
	done, err := d.Submit(ack, blockdev.Request{Op: blockdev.OpRead, Off: 0, Len: blockdev.PageSize})
	if err != nil {
		t.Fatal(err)
	}
	if done < fd {
		t.Fatalf("read done %v before flush barrier %v", done, fd)
	}
	// And a write too.
	wdone := write(t, d, ack, 2<<20, blockdev.PageSize)
	if wdone < fd {
		t.Fatalf("write done %v before flush barrier %v", wdone, fd)
	}
}

func TestAccountCopiesAggregates(t *testing.T) {
	d := newTestSSD(t, testConfig())
	before := d.nand.Stats()
	d.nand.AccountCopies(100)
	after := d.nand.Stats()
	if after.PagesProgrammed-before.PagesProgrammed != 100 ||
		after.PagesRead-before.PagesRead != 100 {
		t.Fatalf("copies not accounted: %+v -> %+v", before, after)
	}
	if after.Erases == before.Erases {
		t.Fatal("amortized erases not accounted")
	}
	d.nand.AccountCopies(0) // no-op
	if d.nand.Stats() != after {
		t.Fatal("zero copies changed stats")
	}
}

func TestWAFIncludesMergeCopies(t *testing.T) {
	d := newTestSSD(t, testConfig())
	var at vtime.Time
	at = fill(t, d, 1<<20, at)
	egs := d.Config().EraseGroupSize
	for g := int64(0); g < 2*logGranules; g++ {
		at = write(t, d, at, g*egs+egs/2, blockdev.PageSize)
	}
	if d.WAF() <= 1.0 {
		t.Fatalf("WAF %v does not reflect merge copies", d.WAF())
	}
}
