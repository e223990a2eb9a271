package src

import (
	"errors"
	"fmt"

	"srccache/internal/blockdev"
	"srccache/internal/vtime"
)

// Retry and escalation (md-style). Every SSD request the cache issues goes
// through submitSSD: transient errors are retried with bounded virtual-time
// backoff, latent sector errors surface as ErrUnreadable for in-place repair
// from redundancy, and each corrected error counts against a per-device
// budget. A device that exhausts the budget, or that answers a request with
// a hard ErrDeviceFailed, is escalated to column fail-stop — from then on
// the cache treats it like a failed drive, writes segments degraded around
// it and serves its ranges through the degraded path until it is replaced
// and rebuilt.

// RepairStats accumulates the cache's self-healing activity.
type RepairStats struct {
	// Retries counts transient-error retries issued.
	Retries int64
	// TransientErrors counts transient device errors observed, including
	// ones that a retry corrected.
	TransientErrors int64
	// UnreadableErrors counts latent-sector-error reads observed.
	UnreadableErrors int64
	// Escalations counts devices fail-stopped: by the error budget, or at
	// once by a hard device failure.
	Escalations int64
	// RepairedPages counts pages repaired in place from redundancy
	// (latent sector errors rewritten from parity reconstruction).
	RepairedPages int64
	// RebuiltSegments counts segment columns reconstructed onto a
	// replacement device.
	RebuiltSegments int64
	// ScrubbedPages counts pages verified by the scrubber.
	ScrubbedPages int64
	// CorruptionsDetected counts tag mismatches the checked read (readSSD)
	// found on a live column, for a host read, ReadCheck or reclaim. It
	// never counts a page on a column that is down or awaiting rebuild:
	// that page is read by reconstruction, not from the device.
	CorruptionsDetected int64
	// CorruptionsRepaired counts detected corruptions rebuilt from parity,
	// or dropped from the cache because primary holds the clean page; the
	// rest are dirty pages reported as ErrDataLoss.
	CorruptionsRepaired int64
}

// A transient device error is retried up to retryLimit times, the first
// retry retryDelay of virtual time later and each further one after twice
// the previous wait. A request still transient after that treats the
// device as failed for it and falls back to the degraded path.
const (
	retryLimit = 3
	retryDelay = 100 * vtime.Microsecond
)

// submitSSD is the single funnel for SSD requests: it enforces column
// fail-stop, routes reads of not-yet-rebuilt ranges to the degraded path,
// retries transient errors with exponential virtual-time backoff, counts
// corrected errors against the device's budget, and fail-stops the column
// of a device that reports itself failed.
func (c *Cache) submitSSD(at vtime.Time, col int, req blockdev.Request) (vtime.Time, error) {
	if c.colDown[col] {
		return at, fmt.Errorf("%w: ssd %d fail-stopped", blockdev.ErrDeviceFailed, col)
	}
	if req.Op == blockdev.OpRead && c.awaitingRebuild(col, req.Off) {
		// The replacement device holds no data here yet; the degraded
		// fallbacks (reconstruction or primary refetch) serve the read.
		return at, fmt.Errorf("%w: ssd %d range awaiting rebuild", blockdev.ErrDeviceFailed, col)
	}
	dev := c.cfg.SSDs[col]
	t, err := dev.Submit(at, req)
	if err == nil {
		return t, nil
	}
	attempts := 0
	for errors.Is(err, blockdev.ErrTransient) {
		c.repair.TransientErrors++
		if attempts >= retryLimit {
			c.noteDevError(col)
			return at, fmt.Errorf("%w: ssd %d still transient after %d retries", blockdev.ErrDeviceFailed, col, attempts)
		}
		at = at.Add(retryDelay << attempts)
		attempts++
		c.repair.Retries++
		t, err = dev.Submit(at, req)
	}
	if attempts > 0 && err == nil {
		// Corrected after retrying: one error against the budget, md-style.
		c.noteDevError(col)
	}
	if errors.Is(err, blockdev.ErrUnreadable) {
		c.repair.UnreadableErrors++
		c.noteDevError(col)
	}
	if errors.Is(err, blockdev.ErrDeviceFailed) {
		// The device itself says it is gone: no budget to spend. Left a
		// live column, it would reject every later segment write, and each
		// of those would be abandoned instead of written degraded.
		c.failStop(col)
	}
	return t, err
}

// noteDevError charges one corrected error against col's budget and
// escalates the column to fail-stop when the budget is exhausted.
func (c *Cache) noteDevError(col int) {
	c.devErrs[col]++
	if c.devErrs[col] >= c.cfg.ErrorBudget {
		c.failStop(col)
	}
}

// failStop escalates col to column fail-stop, once.
func (c *Cache) failStop(col int) {
	if !c.colDown[col] {
		c.colDown[col] = true
		c.repair.Escalations++
	}
}

// repairUnreadableRun repairs a latent sector error covering the run
// [off, off+n) on col of a parity segment: the range is reconstructed from
// the survivors and rewritten in place (rewriting clears the latent error).
// The content tags were never lost (unreadable, not corrupted), so only
// timing is charged.
func (c *Cache) repairUnreadableRun(at vtime.Time, col int, off, n int64) (vtime.Time, error) {
	t, err := c.reconstructColumns(at, col, off, n)
	if err != nil {
		return at, err
	}
	wt, err := c.submitSSD(t, col, blockdev.Request{Op: blockdev.OpWrite, Off: off, Len: n})
	if err != nil {
		if isDeviceFailed(err) {
			// Escalated mid-repair: the data was reconstructed and the
			// degraded path keeps serving it; the rewrite just didn't land.
			return t, nil
		}
		return t, err
	}
	c.repair.RepairedPages += n / blockdev.PageSize
	return wt, nil
}

// Introspection for failure harnesses.

// CachedVersion reports the version the cache holds for lba and whether lba
// is cached at all (in any state). Versions are meaningful only with
// TrackContent.
func (c *Cache) CachedVersion(lba int64) (uint64, bool) {
	if _, ok := c.mapping.get(lba); !ok {
		return 0, false
	}
	if c.versions == nil {
		return 0, true
	}
	return c.versions[lba], true
}

// Locate reports the SSD column and device page index of lba's on-SSD copy;
// ok is false when lba is uncached or lives in a RAM segment buffer.
func (c *Cache) Locate(lba int64) (col int, page int64, ok bool) {
	e, okm := c.mapping.get(lba)
	if !okm || !e.state.onSSD() {
		return 0, 0, false
	}
	return int(e.col), int64(e.page), true
}
