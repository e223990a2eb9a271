package raid

import (
	"fmt"

	"srccache/internal/blockdev"
	"srccache/internal/vtime"
)

// Submit schedules a logical request and returns its completion time.
func (a *Array) Submit(at vtime.Time, req blockdev.Request) (vtime.Time, error) {
	if err := req.Validate(a.capacity); err != nil {
		return at, err
	}
	a.stats.Record(req)
	switch req.Op {
	case blockdev.OpTrim:
		return a.trim(at, req)
	case blockdev.OpRead:
		return a.read(at, req)
	default:
		return a.write(at, req)
	}
}

// Flush flushes every member and completes when the last one drains.
func (a *Array) Flush(at vtime.Time) (vtime.Time, error) {
	a.stats.Flushes++
	a.cont.FlushContent()
	done := at
	for i, d := range a.devs {
		t, err := d.Flush(at)
		if err != nil {
			return at, fmt.Errorf("raid: member %d: %w", i, err)
		}
		done = vtime.Max(done, t)
	}
	return done, nil
}

// submitDev issues one request to member d. Its error names the member and
// wraps the member's own, so errors.Is still matches blockdev's sentinels.
func (a *Array) submitDev(at vtime.Time, d int, op blockdev.Op, off, n int64) (vtime.Time, error) {
	t, err := a.devs[d].Submit(at, blockdev.Request{Op: op, Off: off, Len: n})
	if err != nil {
		return at, fmt.Errorf("raid: member %d: %w", d, err)
	}
	return t, nil
}

// everyMember issues the same request to every member at once and returns
// when the last one completes.
func (a *Array) everyMember(at vtime.Time, op blockdev.Op, off, n int64) (vtime.Time, error) {
	done := at
	for d := range a.devs {
		t, err := a.submitDev(at, d, op, off, n)
		if err != nil {
			return at, err
		}
		done = vtime.Max(done, t)
	}
	return done, nil
}

// trim forwards a logical trim to the member ranges it covers, including
// parity, at stripe granularity.
func (a *Array) trim(at vtime.Time, req blockdev.Request) (vtime.Time, error) {
	stripeData := a.chunk * int64(a.dataDevs)
	s0 := req.Off / stripeData
	s1 := (req.Off + req.Len - 1) / stripeData
	done, err := a.everyMember(at, blockdev.OpTrim, s0*a.chunk, (s1-s0+1)*a.chunk)
	if err != nil {
		return at, err
	}
	// Nothing reads a member's content store, and src commits the array's
	// instead of flushing it: commit the trim each member just logged.
	for _, d := range a.devs {
		d.Content().FlushContent()
	}
	if err := a.cont.Trim(req.Off/blockdev.PageSize, req.Pages()); err != nil {
		return at, err
	}
	return done, nil
}

// span is a contiguous byte range on one member device.
type span struct {
	dev int
	off int64
	n   int64
}

// dataSpans maps a logical byte range to per-device whole-chunk spans,
// merging adjacent chunks so large requests become one command per device
// (block-layer request merging). Parity chunks are not included.
func (a *Array) dataSpans(off, n int64) []span {
	c0 := off / a.chunk
	c1 := (off + n - 1) / a.chunk
	spans := make([]span, 0, len(a.devs))
	for c := c0; c <= c1; c++ {
		s, pos := a.locate(c)
		d := a.dataDev(s, pos)
		dOff := s * a.chunk
		merged := false
		for i := range spans {
			if spans[i].dev == d && spans[i].off+spans[i].n == dOff {
				spans[i].n += a.chunk
				merged = true
				break
			}
		}
		if !merged {
			spans = append(spans, span{dev: d, off: dOff, n: a.chunk})
		}
	}
	return spans
}

// read serves a logical read from the data chunks; under Level1 from the
// first member of each pair.
func (a *Array) read(at vtime.Time, req blockdev.Request) (vtime.Time, error) {
	done := at
	for _, sp := range a.dataSpans(req.Off, req.Len) {
		t, err := a.submitDev(at, sp.dev, blockdev.OpRead, sp.off, sp.n)
		if err != nil {
			return at, err
		}
		done = vtime.Max(done, t)
	}
	return done, nil
}

// write serves a logical write: each data span once, or to both members of
// its pair under Level1; parity levels go through parityWrite.
func (a *Array) write(at vtime.Time, req blockdev.Request) (vtime.Time, error) {
	if a.level == Level4 || a.level == Level5 {
		return a.parityWrite(at, req)
	}
	done := at
	for _, sp := range a.dataSpans(req.Off, req.Len) {
		for c := 0; c < a.copies; c++ {
			t, err := a.submitDev(at, sp.dev+c, blockdev.OpWrite, sp.off, sp.n)
			if err != nil {
				return at, err
			}
			done = vtime.Max(done, t)
		}
	}
	return done, nil
}

// parityWrite serves a write under RAID-4/5: full stripes are written in one
// pass with freshly computed parity (no reads); partially covered stripes
// pay the read-modify-write penalty first, in stripe order.
func (a *Array) parityWrite(at vtime.Time, req blockdev.Request) (vtime.Time, error) {
	dd := int64(a.dataDevs)
	c0 := req.Off / a.chunk
	c1 := (req.Off + req.Len - 1) / a.chunk
	// A stripe is "full" when every one of its data chunks is covered (the
	// array operates at whole-chunk granularity). Full stripes form one
	// contiguous run, possibly empty, in the middle of the request.
	fullFrom, fullTo := (c0+dd-1)/dd, (c1+1)/dd-1

	done := at
	for s := c0 / dd; s <= c1/dd; s++ {
		if s >= fullFrom && s <= fullTo {
			continue // handled by the coalesced full run below
		}
		t, err := a.rmwStripe(at, s, int(max(c0-s*dd, 0)), int(min(c1-s*dd, dd-1)))
		if err != nil {
			return at, err
		}
		done = vtime.Max(done, t)
	}
	if fullFrom <= fullTo {
		t, err := a.everyMember(at, blockdev.OpWrite, fullFrom*a.chunk, (fullTo-fullFrom+1)*a.chunk)
		if err != nil {
			return at, err
		}
		done = vtime.Max(done, t)
	}
	return done, nil
}

// rmwStripe updates data positions lo..hi of stripe s by read-modify-write:
// read the old data and parity, then, once every read is in, write the new
// data and parity.
func (a *Array) rmwStripe(at vtime.Time, s int64, lo, hi int) (vtime.Time, error) {
	readDone, err := a.touchStripe(at, blockdev.OpRead, s, lo, hi)
	if err != nil {
		return at, err
	}
	return a.touchStripe(readDone, blockdev.OpWrite, s, lo, hi)
}

// touchStripe issues op on the chunks at data positions lo..hi of stripe s
// and then on its parity chunk, all at time at, and returns when the last
// completes.
func (a *Array) touchStripe(at vtime.Time, op blockdev.Op, s int64, lo, hi int) (vtime.Time, error) {
	done := at
	for pos := lo; pos <= hi+1; pos++ {
		d := a.parityDev(s)
		if pos <= hi {
			d = a.dataDev(s, pos)
		}
		t, err := a.submitDev(at, d, op, s*a.chunk, a.chunk)
		if err != nil {
			return at, err
		}
		done = vtime.Max(done, t)
	}
	return done, nil
}
