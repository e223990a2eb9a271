package ssd

import "srccache/internal/vtime"

// Hybrid-FTL write alignment (the mechanism behind the paper's Figure 2):
// commodity SSD firmware tracks writes per erase-group-sized region
// ("granule") and absorbs them in log blocks. A sequential pass that covers
// a whole granule is free (switch merge); anything else occupies one of a
// bounded pool of log granules, and when the pool overflows the firmware
// merges the oldest — copying valid pages around the logged span, with
// cost growing with the granule's utilization. This is what makes
// sustained throughput collapse for write units far below the erase group
// size, recover as the unit approaches it, and depend on over-provisioning
// below it.

// granuleOf maps a host page to its granule.
func (d *SSD) granuleOf(host int64) int64 { return host / d.pagesPerSB }

// granuleCount is the number of host-side granules.
func (d *SSD) granuleCount() int64 {
	return (d.hostPages + d.pagesPerSB - 1) / d.pagesPerSB
}

// noteWriteAlignment classifies one host write run, granule by granule,
// opening/extending log blocks and merging when the pool overflows. ready
// gates the flash work of any merge.
func (d *SSD) noteWriteAlignment(firstPage, pages int64, ready vtime.Time) error {
	for p := firstPage; p < firstPage+pages; {
		g := d.granuleOf(p)
		gStart := g * d.pagesPerSB
		gEnd := gStart + d.pagesPerSB
		end := gEnd
		if firstPage+pages < end {
			end = firstPage + pages
		}
		if err := d.noteGranuleWrite(g, gStart, gEnd, p, end, ready); err != nil {
			return err
		}
		p = end
	}
	return nil
}

// noteGranuleWrite handles the part of a write run inside one granule.
func (d *SSD) noteGranuleWrite(g, gStart, gEnd, p, end int64, ready vtime.Time) error {
	switch {
	case d.logFill[g] >= 0 && p == d.logFill[g]:
		// Sequential continuation of the open log block.
		d.logFill[g] = end
		d.logPages[g] += end - p
	case d.logFill[g] >= 0:
		// Out-of-order write: the log block keeps absorbing, but the
		// granule can no longer switch-merge for free.
		d.logFill[g] = end
		d.logStart[g] = -2 // sequentiality broken
		if d.logPages[g] += end - p; d.logPages[g] > d.pagesPerSB {
			d.logPages[g] = d.pagesPerSB
		}
	default:
		d.openLog(g, p, end, ready)
		if err := d.evictLogGranules(ready); err != nil {
			return err
		}
	}
	// A log block that has swept the granule start-to-end switch-merges
	// for free.
	if d.logStart[g] == gStart && d.logFill[g] == gEnd {
		d.closeLog(g)
	}
	return nil
}

func (d *SSD) openLog(g, p, end int64, _ vtime.Time) {
	d.logStart[g] = p
	d.logFill[g] = end
	d.logPages[g] = end - p
	d.openGran = append(d.openGran, g)
	d.liveLogs++
}

func (d *SSD) closeLog(g int64) {
	if d.logFill[g] >= 0 {
		d.liveLogs--
	}
	d.logStart[g] = -1
	d.logFill[g] = -1
	// The FIFO entry is removed lazily by evictLogGranules.
}

// evictLogGranules merges the oldest open log blocks until the pool fits,
// discarding stale queue entries (closed by switch merge or trim) as it
// goes.
func (d *SSD) evictLogGranules(ready vtime.Time) error {
	for d.liveLogs > logGranules {
		g := d.openGran[0]
		d.openGran = d.openGran[1:]
		if d.logFill[g] < 0 {
			continue // stale entry
		}
		if err := d.mergeGranule(g, ready); err != nil {
			return err
		}
	}
	// Bound queue growth from stale entries.
	for len(d.openGran) > 4*(logGranules+1) && d.logFill[d.openGran[0]] < 0 {
		d.openGran = d.openGran[1:]
	}
	return nil
}

// mergeGranule performs a partial merge of the granule's open log block on
// eviction: the firmware rewrites the data blocks the absorbed pages
// touched, so the cost scales with how much the log absorbed and how much
// of the granule is live. The rewrites go straight to data blocks — they
// do not re-enter the page-mapped log (which would double-charge
// relocation) — so the cost is program/read time on the flash units plus
// aggregate wear accounting.
func (d *SSD) mergeGranule(g int64, ready vtime.Time) error {
	logged := d.logPages[g]
	d.closeLog(g)
	if d.granValid[g] == 0 || logged <= 0 {
		return nil
	}
	copies := 2 * logged * int64(d.granValid[g]) / d.pagesPerSB
	if copies < 1 {
		copies = 1
	}
	d.nand.AccountCopies(copies)
	d.gcPageCopies += copies
	units := int64(d.cfg.Parallelism)
	if copies < units {
		units = copies
	}
	perUnit := (copies + units - 1) / units
	for i := int64(0); i < units; i++ {
		u := int((d.mergeCursor + i) % int64(d.cfg.Parallelism))
		d.bumpUnit(u, ready, vtime.Duration(perUnit)*(readLatency+d.cfg.ProgramLatency))
	}
	d.mergeCursor += units
	return nil
}

// noteTrimAlignment resets granule state for trims; a trim covering a whole
// granule closes its log block for free and re-arms sequential streaming.
func (d *SSD) noteTrimAlignment(firstPage, pages int64) {
	for p := firstPage; p < firstPage+pages; {
		g := d.granuleOf(p)
		gStart := g * d.pagesPerSB
		gEnd := gStart + d.pagesPerSB
		end := gEnd
		if firstPage+pages < end {
			end = firstPage + pages
		}
		if p == gStart && end == gEnd {
			d.closeLog(g)
		}
		p = end
	}
}
