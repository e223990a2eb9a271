package chaos

import (
	"fmt"

	"srccache/internal/blockdev"
	"srccache/internal/src"
	"srccache/internal/vtime"
)

// The invariants a violation names (DESIGN.md §10): the oracle checks the
// first four, the crash probe the last three.
const (
	noPhantomData          = "no-phantom-data"         // no version newer than acknowledged, nothing mapped outside the span
	durableAfterFlush      = "durable-after-flush"     // a version a completed Flush covered survives, cached or on primary
	noWrongBytes           = "no-wrong-bytes"          // a running cache holds each page's newest version and serves it verified
	tornDiscarded          = "torn-discarded"          // every page recovery mapped reads back verified
	recoverySucceeds       = "recovery-succeeds"       // Recover degrades by discarding, never by failing
	deterministicRecovery  = "deterministic-recovery"  // the same crashed state recovers to the same mapping
	generationMonotonicity = "generation-monotonicity" // a write flushed after recovery wins over every resurrected generation
)

func breach(inv, format string, a ...any) error {
	return &violation{invariant: inv, detail: fmt.Sprintf(format, a...)}
}

// oracle judges pages [0, Span) of Cache against a harness's model: Latest
// maps a page to its newest acknowledged version and Durable to the newest
// one a completed Flush covered. A check returns a *violation for a broken
// invariant and any other error for a harness failure.
type oracle struct {
	Cache           *src.Cache
	Primary         *blockdev.Content
	Latest, Durable map[int64]uint64
	Span            int64
}

// recovered checks a cache just recovered from a crash: page on every page
// of the span, and no more pages mapped than lie in it.
func (o oracle) recovered(at vtime.Time, strict, readBack bool) error {
	inSpan := 0
	for lba := int64(0); lba < o.Span; lba++ {
		if _, cached := o.Cache.CachedVersion(lba); cached {
			inSpan++
		}
		if err := o.page(at, lba, strict, readBack); err != nil {
			return err
		}
	}
	if got := o.Cache.State(nil).CachedPages; got > inSpan {
		return breach(noPhantomData, "%d pages mapped but only %d lie in the span", got, inSpan)
	}
	return nil
}

// page checks page lba of a recovered cache. A mapped version lies in
// [Durable, Latest] and, with readBack, verifies at time at; otherwise the
// Durable version is on primary, which clean pages always are (the NPC
// rule: clean loss is acceptable, dirty loss is not). Without strict the
// Durable floor goes, and a page may fail loudly to read back.
func (o oracle) page(at vtime.Time, lba int64, strict, readBack bool) error {
	lv, dv := o.Latest[lba], o.Durable[lba]
	if !strict {
		dv = 0
	}
	switch rv, cached := o.Cache.CachedVersion(lba); {
	case !cached || rv == 0:
		return o.onPrimary(lba, dv, lv)
	case rv > lv:
		return breach(noPhantomData, "page %d recovered at version %d, newer than acknowledged %d", lba, rv, lv)
	case rv < dv:
		return breach(durableAfterFlush, "page %d recovered at version %d, below the durable version %d", lba, rv, dv)
	case !readBack:
		return nil
	}
	if _, _, err := o.Cache.ReadCheck(at, lba); err != nil && strict {
		return breach(tornDiscarded, "page %d mapped but unreadable after recovery: %v", lba, err)
	}
	return nil
}

// live checks page lba of a running cache. A cached page holds exactly its
// Latest version and verifies at time at, which live returns advanced; an
// uncached one has a version in [max(1, Durable), Latest] on primary. A
// page never written passes. cached reports whether the cache held it.
func (o oracle) live(at vtime.Time, lba int64) (_ vtime.Time, cached bool, _ error) {
	lv := o.Latest[lba]
	rv, cached := o.Cache.CachedVersion(lba)
	switch {
	case lv == 0:
		return at, false, nil
	case !cached || rv == 0:
		return at, false, o.onPrimary(lba, max(1, o.Durable[lba]), lv)
	case rv > lv:
		return at, true, breach(noPhantomData, "page %d cached at version %d, newer than acknowledged %d", lba, rv, lv)
	case rv < lv:
		return at, true, breach(noWrongBytes, "page %d cached at version %d, not the acknowledged %d", lba, rv, lv)
	}
	_, done, err := o.Cache.ReadCheck(at, lba)
	if err != nil {
		return at, true, breach(noWrongBytes, "page %d does not read back: %v", lba, err)
	}
	return vtime.Max(at, done), true, nil
}

// onPrimary requires primary to hold lba at a version in [lo, hi]; lo 0
// requires nothing.
func (o oracle) onPrimary(lba int64, lo, hi uint64) error {
	pt, err := o.Primary.ReadTag(lba)
	if lo == 0 || err != nil {
		return err
	}
	for v := lo; v <= hi; v++ {
		if pt == blockdev.DataTag(lba, v) {
			return nil
		}
	}
	return breach(durableAfterFlush, "page %d has no version in [%d, %d] cached or on primary", lba, lo, hi)
}
