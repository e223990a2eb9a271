package torture

import (
	"fmt"

	"srccache/internal/blockdev"
	"srccache/internal/src"
	"srccache/internal/vtime"
)

// The invariants an Oracle check names (DESIGN.md §10).
const (
	NoPhantomData     = "no-phantom-data"     // no version newer than acknowledged, nothing mapped outside the span
	DurableAfterFlush = "durable-after-flush" // a version a completed Flush covered survives, cached or on primary
	NoWrongBytes      = "no-wrong-bytes"      // a running cache holds each page's newest version and serves it verified
	TornDiscarded     = "torn-discarded"      // every page recovery mapped reads back verified
)

// Breach is the invariant an Oracle check found broken.
type Breach struct{ Invariant, Detail string }

func (b *Breach) Error() string { return b.Invariant + ": " + b.Detail }

func breach(inv, format string, a ...any) error {
	return &Breach{inv, fmt.Sprintf(format, a...)}
}

// Oracle judges pages [0, Span) of Cache against a harness's model: Latest
// maps a page to its newest acknowledged version and Durable to the newest
// one a completed Flush covered. A check returns a *Breach for a broken
// invariant and any other error for a harness failure.
type Oracle struct {
	Cache           *src.Cache
	Primary         *blockdev.Content
	Latest, Durable map[int64]uint64
	Span            int64
}

// Recovered checks a cache just recovered from a crash: Page on every page
// of the span, and no more pages mapped than lie in it.
func (o Oracle) Recovered(at vtime.Time, strict, readBack bool) error {
	inSpan := 0
	for lba := int64(0); lba < o.Span; lba++ {
		if _, cached := o.Cache.CachedVersion(lba); cached {
			inSpan++
		}
		if err := o.Page(at, lba, strict, readBack); err != nil {
			return err
		}
	}
	if got := o.Cache.State(nil).CachedPages; got > inSpan {
		return breach(NoPhantomData, "%d pages mapped but only %d lie in the span", got, inSpan)
	}
	return nil
}

// Page checks page lba of a recovered cache. A mapped version lies in
// [Durable, Latest] and, with readBack, verifies at time at; otherwise the
// Durable version is on primary, which clean pages always are (the NPC
// rule: clean loss is acceptable, dirty loss is not). Without strict the
// Durable floor goes, and a page may fail loudly to read back.
func (o Oracle) Page(at vtime.Time, lba int64, strict, readBack bool) error {
	lv, dv := o.Latest[lba], o.Durable[lba]
	if !strict {
		dv = 0
	}
	switch rv, cached := o.Cache.CachedVersion(lba); {
	case !cached || rv == 0:
		return o.onPrimary(lba, dv, lv)
	case rv > lv:
		return breach(NoPhantomData, "page %d recovered at version %d, newer than acknowledged %d", lba, rv, lv)
	case rv < dv:
		return breach(DurableAfterFlush, "page %d recovered at version %d, below the durable version %d", lba, rv, dv)
	case !readBack:
		return nil
	}
	if _, _, err := o.Cache.ReadCheck(at, lba); err != nil && strict {
		return breach(TornDiscarded, "page %d mapped but unreadable after recovery: %v", lba, err)
	}
	return nil
}

// Live checks page lba of a running cache. A cached page holds exactly its
// Latest version and verifies at time at, which Live returns advanced; an
// uncached one has a version in [max(1, Durable), Latest] on primary. A
// page never written passes. cached reports whether the cache held it.
func (o Oracle) Live(at vtime.Time, lba int64) (_ vtime.Time, cached bool, _ error) {
	lv := o.Latest[lba]
	rv, cached := o.Cache.CachedVersion(lba)
	switch {
	case lv == 0:
		return at, false, nil
	case !cached || rv == 0:
		return at, false, o.onPrimary(lba, max(1, o.Durable[lba]), lv)
	case rv > lv:
		return at, true, breach(NoPhantomData, "page %d cached at version %d, newer than acknowledged %d", lba, rv, lv)
	case rv < lv:
		return at, true, breach(NoWrongBytes, "page %d cached at version %d, not the acknowledged %d", lba, rv, lv)
	}
	_, done, err := o.Cache.ReadCheck(at, lba)
	if err != nil {
		return at, true, breach(NoWrongBytes, "page %d does not read back: %v", lba, err)
	}
	return vtime.Max(at, done), true, nil
}

// onPrimary requires primary to hold lba at a version in [lo, hi]; lo 0
// requires nothing.
func (o Oracle) onPrimary(lba int64, lo, hi uint64) error {
	pt, err := o.Primary.ReadTag(lba)
	if lo == 0 || err != nil {
		return err
	}
	for v := lo; v <= hi; v++ {
		if pt == blockdev.DataTag(lba, v) {
			return nil
		}
	}
	return breach(DurableAfterFlush, "page %d has no version in [%d, %d] cached or on primary", lba, lo, hi)
}
