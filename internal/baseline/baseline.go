// Package baseline models the caches the paper measures SRC against: the
// Bcache- and Flashcache-like caches of Section 3.1 (Figure 1, Tables 2–3,
// Figure 7) and the RIPQ-like advanced scheme of Section 6. Each keeps its
// own index and eviction policy; all three run over one device set and serve
// host requests through one page walk.
package baseline

import (
	"errors"
	"fmt"

	"srccache/internal/bench"
	"srccache/internal/blockdev"
	"srccache/internal/vtime"
)

// Devices is the device set a cache runs over.
type Devices struct {
	// Cache is the caching volume (one SSD, or a RAID array of them).
	Cache blockdev.Device
	// SSDs lists the physical devices behind Cache for traffic accounting
	// (defaults to [Cache]).
	SSDs []blockdev.Device
	// Primary is the backing store.
	Primary blockdev.Device
}

// core is the scaffold every cache embeds: its devices, its counters and the
// page walk.
type core struct {
	dev      Devices
	counters bench.Counters
	// writeThrough sends every host write whole to primary before the
	// cache's per-page write step runs.
	writeThrough bool
}

// newCore checks the device set and that the cache volume divides into
// units of unit bytes, the cache's bucket, set or block size.
func newCore(d Devices, unit int64, writeThrough bool) (core, error) {
	if d.Cache == nil || d.Primary == nil {
		return core{}, errors.New("baseline: cache and primary devices required")
	}
	if unit <= 0 || unit%blockdev.PageSize != 0 {
		return core{}, fmt.Errorf("baseline: unit %d must be a positive page multiple", unit)
	}
	if d.Cache.Capacity()%unit != 0 {
		return core{}, fmt.Errorf("baseline: cache capacity %d not a multiple of %d", d.Cache.Capacity(), unit)
	}
	if len(d.SSDs) == 0 {
		d.SSDs = []blockdev.Device{d.Cache}
	}
	return core{dev: d, writeThrough: writeThrough}, nil
}

// Counters implements bench.Cache.
func (c *core) Counters() bench.Counters { return c.counters }

// CacheDevices implements bench.Cache.
func (c *core) CacheDevices() []blockdev.Device { return c.dev.SSDs }

// pageStep serves one page of a host read or write from at.
type pageStep func(at vtime.Time, lba int64) (vtime.Time, error)

// walk serves one host request: it checks req against primary, counts reads
// and writes as host traffic and runs the cache's step for each page from at,
// returning the latest completion. Trim goes to primary.
func (c *core) walk(at vtime.Time, req blockdev.Request, read, write pageStep) (vtime.Time, error) {
	if err := req.Validate(c.dev.Primary.Capacity()); err != nil {
		return at, err
	}
	pages := req.Pages()
	done := at
	step := read
	switch req.Op {
	case blockdev.OpRead:
		c.counters.Reads += pages
		c.counters.ReadBytes += req.Len
	case blockdev.OpWrite:
		c.counters.Writes += pages
		c.counters.WriteBytes += req.Len
		step = write
		if c.writeThrough {
			t, err := c.dev.Primary.Submit(at, req)
			if err != nil {
				return at, err
			}
			done = t
		}
	default:
		return c.dev.Primary.Submit(at, req)
	}
	first := req.Off / blockdev.PageSize
	for p := first; p < first+pages; p++ {
		t, err := step(at, p)
		if err != nil {
			return done, err
		}
		done = vtime.Max(done, t)
	}
	return done, nil
}

// fill reads a missed page from primary and counts it as a fill.
func (c *core) fill(at vtime.Time, lba int64) (vtime.Time, error) {
	done, err := c.dev.Primary.Submit(at, pageReq(blockdev.OpRead, lba*blockdev.PageSize))
	if err != nil {
		return at, err
	}
	c.counters.FillBytes += blockdev.PageSize
	return done, nil
}

// destage copies one dirty page from cache offset off back to primary.
func (c *core) destage(at vtime.Time, off, lba int64) (vtime.Time, error) {
	readDone, err := c.dev.Cache.Submit(at, pageReq(blockdev.OpRead, off))
	if err != nil {
		return at, err
	}
	done, err := c.dev.Primary.Submit(readDone, pageReq(blockdev.OpWrite, lba*blockdev.PageSize))
	if err != nil {
		return at, err
	}
	c.counters.DestageBytes += blockdev.PageSize
	return done, nil
}

// pageReq is a one-page request at byte offset off.
func pageReq(op blockdev.Op, off int64) blockdev.Request {
	return blockdev.Request{Op: op, Off: off, Len: blockdev.PageSize}
}
