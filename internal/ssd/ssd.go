package ssd

import (
	"errors"
	"fmt"

	"srccache/internal/blockdev"
	"srccache/internal/flash"
	"srccache/internal/vtime"
)

// ErrNoFreeSpace reports that garbage collection could not reclaim an erase
// group — the FTL invariant (MinSpareGroups of headroom) was violated.
var ErrNoFreeSpace = errors.New("ssd: ftl out of reclaimable space")

type groupState uint8

const (
	groupFree groupState = iota + 1
	groupActive
	groupClosed
	groupRetired
)

// SSD is a simulated flash drive implementing blockdev.Device. See the
// package comment for the modelling approach.
type SSD struct {
	cfg   Config
	nand  *flash.Array
	cont  *blockdev.Content
	stats blockdev.Stats

	hostPages   int64
	pagesPerSB  int64
	blocksPerSB int
	numSB       int

	sbValid  []int32
	sbState  []groupState
	freeSBs  []int32
	active   int32
	writePtr int64
	inGC     bool

	mapTbl []int32 // host page -> phys page index, -1 unmapped
	rmap   []int32 // phys page index -> host page, -1 invalid

	units    []vtime.Time
	linkBusy vtime.Time
	maxBusy  vtime.Time
	barrier  vtime.Time // in-flight FLUSH: later commands wait for it

	// Hybrid-FTL write-alignment state (granule.go).
	logStart    []int64
	logFill     []int64
	logPages    []int64
	granValid   []int32
	openGran    []int64
	liveLogs    int
	mergeCursor int64

	pageXfer    vtime.Duration
	cacheWindow vtime.Duration

	hostPagesWritten int64
	gcPageCopies     int64
	retiredGroups    int64
}

var _ blockdev.Device = (*SSD)(nil)

// New builds an SSD from cfg (defaults filled via Validate).
func New(cfg Config) (*SSD, error) {
	cfg, err := cfg.Validate()
	if err != nil {
		return nil, err
	}
	pagesPerSB := cfg.EraseGroupSize / blockdev.PageSize
	blocksPerSB := int(cfg.EraseGroupSize / (pagesPerBlock * blockdev.PageSize))
	hostPages := cfg.Capacity / blockdev.PageSize

	// Physical space: capacity grown by the spare factor, with at least
	// MinSpareGroups+1 groups of headroom so GC always has a destination
	// and a victim below full validity exists.
	physBytes := int64(float64(cfg.Capacity) * (1 + spareFactor))
	minBytes := cfg.Capacity + int64(MinSpareGroups+1)*cfg.EraseGroupSize
	if physBytes < minBytes {
		physBytes = minBytes
	}
	numSB := int((physBytes + cfg.EraseGroupSize - 1) / cfg.EraseGroupSize)
	physPages := int64(numSB) * pagesPerSB
	if physPages > int64(1)<<31-1 {
		return nil, fmt.Errorf("ssd %s: %d physical pages exceed addressing limit", cfg.Name, physPages)
	}

	// Erase group sb is flash blocks [sb*blocksPerSB, (sb+1)*blocksPerSB).
	nand, err := flash.New(flash.Geometry{
		Blocks:        numSB * blocksPerSB,
		PagesPerBlock: pagesPerBlock,
		PageSize:      blockdev.PageSize,
	}, cfg.EnduranceCycles)
	if err != nil {
		return nil, err
	}

	d := &SSD{
		cfg:         cfg,
		nand:        nand,
		cont:        blockdev.NewContent(cfg.Capacity),
		hostPages:   hostPages,
		pagesPerSB:  pagesPerSB,
		blocksPerSB: blocksPerSB,
		numSB:       numSB,
		sbValid:     make([]int32, numSB),
		sbState:     make([]groupState, numSB),
		mapTbl:      make([]int32, hostPages),
		rmap:        make([]int32, physPages),
		units:       make([]vtime.Time, cfg.Parallelism),
		active:      -1,
		pageXfer:    vtime.TransferTime(blockdev.PageSize, cfg.LinkBandwidth),
	}
	rate := cfg.SustainedProgramRate()
	d.cacheWindow = vtime.TransferTime(cfg.WriteCacheBytes, rate)
	nGran := d.granuleCount()
	d.logStart = make([]int64, nGran)
	d.logFill = make([]int64, nGran)
	d.logPages = make([]int64, nGran)
	d.granValid = make([]int32, nGran)
	for g := int64(0); g < nGran; g++ {
		d.logStart[g] = -1
		d.logFill[g] = -1
	}
	for i := range d.mapTbl {
		d.mapTbl[i] = -1
	}
	for i := range d.rmap {
		d.rmap[i] = -1
	}
	d.freeSBs = make([]int32, 0, numSB)
	for sb := numSB - 1; sb >= 0; sb-- {
		d.sbState[sb] = groupFree
		d.freeSBs = append(d.freeSBs, int32(sb))
	}
	return d, nil
}

// Config returns the effective configuration.
func (d *SSD) Config() Config { return d.cfg }

// Capacity reports the host-visible size in bytes.
func (d *SSD) Capacity() int64 { return d.cfg.Capacity }

// Stats reports host-level traffic counters.
func (d *SSD) Stats() *blockdev.Stats { return &d.stats }

// Content exposes the content store for tag/blob bookkeeping.
func (d *SSD) Content() *blockdev.Content { return d.cont }

// WAF reports the write amplification factor: flash pages programmed per
// host page written. Zero host writes yields zero.
func (d *SSD) WAF() float64 {
	if d.hostPagesWritten == 0 {
		return 0
	}
	return float64(d.nand.Stats().PagesProgrammed) / float64(d.hostPagesWritten)
}

// MeanEraseCount reports average NAND block wear.
func (d *SSD) MeanEraseCount() float64 { return d.nand.MeanEraseCount() }

// unitOf maps a physical page index to its flash unit (channel × way).
func (d *SSD) unitOf(phys int64) int {
	blockInSB := int(phys % d.pagesPerSB % int64(d.blocksPerSB))
	return blockInSB % d.cfg.Parallelism
}

// blockPage maps a physical page index to (flash block id, page in block).
func (d *SSD) blockPage(phys int64) (int, int) {
	sb := phys / d.pagesPerSB
	idx := phys % d.pagesPerSB
	blockInSB := idx % int64(d.blocksPerSB)
	pageInBlock := idx / int64(d.blocksPerSB)
	return int(sb*int64(d.blocksPerSB) + blockInSB), int(pageInBlock)
}

func (d *SSD) bumpUnit(u int, ready vtime.Time, cost vtime.Duration) vtime.Time {
	t := vtime.Max(d.units[u], ready).Add(cost)
	d.units[u] = t
	if t > d.maxBusy {
		d.maxBusy = t
	}
	return t
}

// invalidate drops the mapping for a host page if present.
func (d *SSD) invalidate(host int64) {
	old := d.mapTbl[host]
	if old < 0 {
		return
	}
	d.mapTbl[host] = -1
	d.rmap[old] = -1
	d.sbValid[int64(old)/d.pagesPerSB]--
	d.granValid[d.granuleOf(host)]--
}

// ensureActive guarantees the active group has a programmable page,
// closing an exhausted group, garbage collecting if free groups are scarce,
// and opening a fresh group as needed. Garbage collection may itself open
// and partially fill an active group with copied pages; in that case the
// caller continues in it.
func (d *SSD) ensureActive(ready vtime.Time) error {
	ranGC := false
	for d.active < 0 || d.writePtr == d.pagesPerSB {
		if d.active >= 0 {
			d.sbState[d.active] = groupClosed
			d.active = -1
		}
		if !d.inGC && !ranGC && len(d.freeSBs) <= MinSpareGroups-1 {
			ranGC = true
			if err := d.collect(ready); err != nil {
				return err
			}
			if d.active >= 0 {
				continue // GC opened a group; use it if it has room
			}
		}
		if len(d.freeSBs) == 0 {
			return ErrNoFreeSpace
		}
		sb := d.freeSBs[len(d.freeSBs)-1]
		d.freeSBs = d.freeSBs[:len(d.freeSBs)-1]
		d.sbState[sb] = groupActive
		d.active = sb
		d.writePtr = 0
	}
	return nil
}

// allocPage reserves and programs the next physical page in the active
// group, charging program time to its flash unit with data available at
// ready. It returns the physical page index.
func (d *SSD) allocPage(ready vtime.Time) (int64, error) {
	if err := d.ensureActive(ready); err != nil {
		return 0, err
	}
	phys := int64(d.active)*d.pagesPerSB + d.writePtr
	d.writePtr++
	blk, pg := d.blockPage(phys)
	if err := d.nand.Program(blk, pg); err != nil {
		return 0, fmt.Errorf("ssd %s: %w", d.cfg.Name, err)
	}
	d.bumpUnit(d.unitOf(phys), ready, d.cfg.ProgramLatency)
	return phys, nil
}

// writePage maps host page -> a freshly programmed physical page.
func (d *SSD) writePage(host int64, ready vtime.Time) error {
	d.invalidate(host)
	phys, err := d.allocPage(ready)
	if err != nil {
		return err
	}
	d.mapTbl[host] = int32(phys)
	d.rmap[phys] = int32(host)
	d.sbValid[phys/d.pagesPerSB]++
	d.granValid[d.granuleOf(host)]++
	d.hostPagesWritten++
	return nil
}

// collect runs greedy garbage collection until MinSpareGroups groups are
// free, copying valid pages out of minimum-valid victims.
func (d *SSD) collect(ready vtime.Time) error {
	d.inGC = true
	defer func() { d.inGC = false }()
	for len(d.freeSBs) < MinSpareGroups {
		victim := int32(-1)
		best := int32(int64(d.pagesPerSB) + 1)
		for sb := 0; sb < d.numSB; sb++ {
			if d.sbState[sb] != groupClosed {
				continue
			}
			if d.sbValid[sb] < best {
				best = d.sbValid[sb]
				victim = int32(sb)
			}
		}
		if victim < 0 || int64(best) >= d.pagesPerSB {
			// No reclaimable group below full validity.
			if len(d.freeSBs) > 0 {
				return nil
			}
			return ErrNoFreeSpace
		}
		base := int64(victim) * d.pagesPerSB
		for idx := int64(0); idx < d.pagesPerSB && d.sbValid[victim] > 0; idx++ {
			phys := base + idx
			host := d.rmap[phys]
			if host < 0 {
				continue
			}
			// Read from the victim's unit, program into the active group.
			readDone := d.bumpUnit(d.unitOf(phys), ready, readLatency)
			blk, pg := d.blockPage(phys)
			if err := d.nand.Read(blk, pg); err != nil {
				return fmt.Errorf("ssd %s gc: %w", d.cfg.Name, err)
			}
			d.rmap[phys] = -1
			d.sbValid[victim]--
			d.mapTbl[host] = -1
			if err := d.writePage(int64(host), readDone); err != nil {
				return err
			}
			d.hostPagesWritten-- // GC copies are not host writes
			d.gcPageCopies++
		}
		d.eraseGroup(victim, ready)
	}
	return nil
}

// eraseGroup erases every block of the group and returns it to the free
// pool; a worn-out block retires the whole group.
func (d *SSD) eraseGroup(sb int32, ready vtime.Time) {
	retired := false
	for b := 0; b < d.blocksPerSB; b++ {
		blk := int(sb)*d.blocksPerSB + b
		if err := d.nand.Erase(blk); err != nil {
			retired = true
			continue
		}
		d.bumpUnit(blk%d.cfg.Parallelism, ready, eraseLatency)
	}
	if retired {
		d.sbState[sb] = groupRetired
		d.retiredGroups++
		return
	}
	d.sbState[sb] = groupFree
	d.freeSBs = append(d.freeSBs, sb)
}

// Submit schedules one request and returns its completion time.
func (d *SSD) Submit(at vtime.Time, req blockdev.Request) (vtime.Time, error) {
	if err := req.Validate(d.cfg.Capacity); err != nil {
		return at, err
	}
	d.stats.Record(req)
	firstPage := req.Off / blockdev.PageSize
	pages := req.Pages()

	switch req.Op {
	case blockdev.OpTrim:
		// TRIM is a metadata operation: link command overhead only.
		for p := firstPage; p < firstPage+pages; p++ {
			d.invalidate(p)
		}
		d.noteTrimAlignment(firstPage, pages)
		if err := d.cont.Trim(firstPage, pages); err != nil {
			return at, err
		}
		start := vtime.Max(d.linkBusy, vtime.Max(at, d.barrier))
		d.linkBusy = start.Add(d.cfg.CommandOverhead)
		return d.linkBusy, nil

	case blockdev.OpWrite:
		start := vtime.Max(d.linkBusy, vtime.Max(at, d.barrier))
		linkDone := start.Add(d.cfg.CommandOverhead + vtime.Duration(pages)*d.pageXfer)
		d.linkBusy = linkDone
		if err := d.noteWriteAlignment(firstPage, pages, linkDone); err != nil {
			return linkDone, err
		}
		for p := firstPage; p < firstPage+pages; p++ {
			if err := d.writePage(p, linkDone); err != nil {
				return linkDone, err
			}
		}
		// The write is acknowledged once it is in the DRAM cache, unless
		// the cache is full, in which case the host is throttled to the
		// flash drain rate.
		ack := linkDone
		if backlog := d.maxBusy.Sub(linkDone); backlog > d.cacheWindow {
			ack = d.maxBusy.Add(-d.cacheWindow)
		}
		return ack, nil

	case blockdev.OpRead:
		cmdDone := vtime.Max(d.linkBusy, vtime.Max(at, d.barrier)).Add(d.cfg.CommandOverhead)
		flashDone := cmdDone
		for p := firstPage; p < firstPage+pages; p++ {
			phys := d.mapTbl[p]
			if phys < 0 {
				continue // unmapped: served as zeroes, no flash access
			}
			blk, pg := d.blockPage(int64(phys))
			if err := d.nand.Read(blk, pg); err != nil {
				return cmdDone, fmt.Errorf("ssd %s: %w", d.cfg.Name, err)
			}
			done := d.bumpUnit(d.unitOf(int64(phys)), cmdDone, readLatency)
			if done > flashDone {
				flashDone = done
			}
		}
		linkDone := vtime.Max(d.linkBusy, flashDone).Add(vtime.Duration(pages) * d.pageXfer)
		d.linkBusy = linkDone
		return linkDone, nil
	}
	return at, fmt.Errorf("%w: %v", blockdev.ErrBadRequest, req.Op)
}

// Flush drains the write cache: it completes once every accepted program has
// reached flash, plus the firmware flush cost, and commits content
// durability. The command occupies the link only briefly — NCQ lets data
// transfers continue while the drain proceeds.
func (d *SSD) Flush(at vtime.Time) (vtime.Time, error) {
	d.stats.Flushes++
	// The cost is waiting for the write-cache drain plus the firmware's
	// flush work. FLUSH CACHE is a barrier: commands issued after it wait
	// for its completion.
	done := vtime.Max(at.Add(d.cfg.CommandOverhead), d.maxBusy).Add(flushLatency)
	if done > d.barrier {
		d.barrier = done
	}
	d.cont.FlushContent()
	return done, nil
}
