// Package hdd models a rotating disk: seek time scaled by seek distance,
// rotational latency, media transfer rate, and sequential-access detection.
// Eight of these behind a network link form the paper's primary storage
// (Table 1: RAID-10 of 8× 2 TB 7.2K RPM disks).
package hdd

import (
	"fmt"
	"math"

	"srccache/internal/blockdev"
	"srccache/internal/vtime"
)

// Config describes one drive. The mechanics are those of the paper's 7.2K
// RPM SATA disks (the constants below); only the name and size vary.
type Config struct {
	Name     string
	Capacity int64
}

// The drive mechanics of a 7.2K RPM SATA disk.
const (
	// rpm is the spindle speed.
	rpm = 7200
	// rotHalf is the average rotational latency: half a revolution.
	rotHalf = 30 * vtime.Second / rpm
	// avgSeek is the average seek time — the seek for a move of one third
	// of the platter.
	avgSeek = 8500 * vtime.Microsecond
	// trackSeek is the minimum (track-to-track) seek.
	trackSeek = 600 * vtime.Microsecond
	// transferRate is the media rate in bytes/s (150 MB/s).
	transferRate = 150e6
	// commandOverhead is per-command controller latency.
	commandOverhead = 100 * vtime.Microsecond
)

// Validate fills defaults and checks invariants.
func (c Config) Validate() (Config, error) {
	if c.Name == "" {
		c.Name = "hdd"
	}
	if c.Capacity <= 0 {
		return c, fmt.Errorf("hdd %s: capacity %d must be positive", c.Name, c.Capacity)
	}
	if c.Capacity%blockdev.PageSize != 0 {
		return c, fmt.Errorf("hdd %s: capacity %d not page-aligned", c.Name, c.Capacity)
	}
	return c, nil
}

// HDD is a simulated rotating disk implementing blockdev.Device.
type HDD struct {
	cfg     Config
	busy    vtime.Time
	headPos int64 // byte offset just past the last transfer
	stats   blockdev.Stats
	cont    *blockdev.Content
}

var _ blockdev.Device = (*HDD)(nil)

// New builds a drive from cfg.
func New(cfg Config) (*HDD, error) {
	cfg, err := cfg.Validate()
	if err != nil {
		return nil, err
	}
	return &HDD{cfg: cfg, cont: blockdev.NewContent(cfg.Capacity)}, nil
}

// Config returns the effective configuration.
func (d *HDD) Config() Config { return d.cfg }

// Capacity reports the drive size in bytes.
func (d *HDD) Capacity() int64 { return d.cfg.Capacity }

// Stats reports accumulated counters.
func (d *HDD) Stats() *blockdev.Stats { return &d.stats }

// Content exposes the content store.
func (d *HDD) Content() *blockdev.Content { return d.cont }

// seekTime models seek cost for a head move of dist bytes: track-to-track
// for tiny moves, growing with the square root of distance and calibrated so
// that a one-third-stroke move costs avgSeek.
func (d *HDD) seekTime(dist int64) vtime.Duration {
	if dist == 0 {
		return 0
	}
	frac := 3 * float64(dist) / float64(d.cfg.Capacity)
	if frac > 3 {
		frac = 3
	}
	extra := float64(avgSeek-trackSeek) * math.Sqrt(frac)
	return trackSeek + vtime.Duration(extra)
}

// Submit serves the request FCFS. Sequential continuation (offset exactly
// where the head left off) skips seek and rotational delay.
func (d *HDD) Submit(at vtime.Time, req blockdev.Request) (vtime.Time, error) {
	if err := req.Validate(d.cfg.Capacity); err != nil {
		return at, err
	}
	d.stats.Record(req)
	if req.Op == blockdev.OpTrim {
		if err := d.cont.Trim(req.Off/blockdev.PageSize, req.Pages()); err != nil {
			return at, err
		}
		return vtime.Max(at, d.busy), nil
	}
	start := vtime.Max(at, d.busy)
	svc := commandOverhead
	if req.Off != d.headPos {
		dist := req.Off - d.headPos
		if dist < 0 {
			dist = -dist
		}
		mech := d.seekTime(dist) + rotHalf
		if at < d.busy {
			// The request queued behind others: NCQ/elevator scheduling
			// services sorted batches, cutting mechanical cost under load.
			mech = mech * 35 / 100
		}
		svc += mech
	}
	svc += vtime.TransferTime(req.Len, transferRate)
	done := start.Add(svc)
	d.busy = done
	d.headPos = req.Off + req.Len
	return done, nil
}

// Flush completes when the queue drains; content becomes durable.
func (d *HDD) Flush(at vtime.Time) (vtime.Time, error) {
	d.stats.Flushes++
	d.cont.FlushContent()
	return vtime.Max(at, d.busy), nil
}
