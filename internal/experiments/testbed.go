package experiments

import (
	"fmt"

	"srccache/internal/baseline"
	"srccache/internal/bench"
	"srccache/internal/blockdev"
	"srccache/internal/primary"
	"srccache/internal/raid"
	"srccache/internal/src"
	"srccache/internal/ssd"
)

// The testbed: the paper's prototype (four SATA MLC SSDs of the 840 Pro
// class in front of an 8-HDD iSCSI RAID-10 primary, §5.1) at 1/Scale. It
// is built here and nowhere else: every experiment, fiosim and the public
// NewSystem assemble their devices through these builders, and the zero
// Options is the 1/16 testbed of DESIGN.md §6. Capacities and primary
// volumes are arguments, so a caller sizes the devices without knowing
// their geometry.

// Scaled geometry derived from Options.
func (o Options) superblock() int64 { return 256 << 20 / o.Scale } // SSD erase group
func (o Options) segColumn() int64 {
	// Segment columns scale less aggressively than capacities (at most
	// 1/4): the per-segment flush cadence of Table 11 depends on the
	// absolute segment size relative to the flush cost.
	return 512 << 10 / min(o.Scale, 4)
}
func (o Options) cachePerSSD() int64 { return 4 << 30 / o.Scale } // paper: ~4.5 GB/SSD of 18 GB total

// ssdConfig is one scaled cache drive of capacity bytes.
func (o Options) ssdConfig(name string, capacity int64) ssd.Config {
	return o.scaled(ssd.SATAMLCConfig(name, capacity))
}

// scaled gives a drive model the testbed's erase group and write cache.
func (o Options) scaled(cfg ssd.Config) ssd.Config {
	cfg.EraseGroupSize = o.superblock()
	cfg.WriteCacheBytes = 64 << 20 / o.Scale
	return cfg
}

// SSDs builds n scaled cache drives of capacity bytes each, named ssd0,
// ssd1, …, as devices and as drives.
func (o Options) SSDs(n int, capacity int64) ([]blockdev.Device, []*ssd.SSD, error) {
	o = o.normalize()
	devs := make([]blockdev.Device, n)
	drives := make([]*ssd.SSD, n)
	for i := range drives {
		d, err := ssd.New(o.ssdConfig(fmt.Sprintf("ssd%d", i), capacity))
		if err != nil {
			return nil, nil, err
		}
		devs[i], drives[i] = d, d
	}
	return devs, drives, nil
}

// RAIDVolume assembles a RAID volume of the given level and chunk over four
// scaled SSDs of capacity bytes each, and returns it with its SSDs.
func (o Options) RAIDVolume(level raid.Level, chunk, capacity int64) (blockdev.Device, []blockdev.Device, error) {
	devs, _, err := o.SSDs(4, capacity)
	if err != nil {
		return nil, nil, err
	}
	arr, err := raid.New(level, chunk, devs)
	if err != nil {
		return nil, nil, err
	}
	return arr, devs, nil
}

// SRC assembles an SRC cache at Table 7's defaults, with the scaled erase
// group and segment column, over four scaled SSDs of capacity bytes each
// and a primary of volume bytes. tweak, when non-nil, edits the
// configuration before validation.
func (o Options) SRC(capacity, volume int64, tweak func(*src.Config)) (*src.Cache, error) {
	o = o.normalize()
	devs, _, err := o.SSDs(4, capacity)
	if err != nil {
		return nil, err
	}
	prim, err := newPrimary(volume)
	if err != nil {
		return nil, err
	}
	return o.newSRC(devs, prim, tweak)
}

// newSRC assembles SRC over the given drives and primary with the scaled
// erase group and segment column, applying tweak before validation.
func (o Options) newSRC(devs []blockdev.Device, prim blockdev.Device, tweak func(*src.Config)) (*src.Cache, error) {
	cfg := src.Config{
		SSDs:           devs,
		Primary:        prim,
		EraseGroupSize: o.superblock(),
		SegmentColumn:  o.segColumn(),
	}
	if tweak != nil {
		tweak(&cfg)
	}
	return src.New(cfg)
}

// Baseline selects one of the open-source caches the paper compares
// against (§3.1, §5.4).
type Baseline int

const (
	Bcache Baseline = iota + 1
	Flashcache
)

func (k Baseline) String() string {
	if k == Bcache {
		return "Bcache"
	}
	return "Flashcache"
}

// RAID5Baseline builds k in write-back mode over RAID-5 of four scaled SSDs
// of capacity bytes each with a one-page chunk (the paper's Bcache5 and
// Flashcache5), in front of a primary of volume bytes.
func (o Options) RAID5Baseline(k Baseline, capacity, volume int64) (bench.Cache, error) {
	arr, ssds, err := o.RAIDVolume(raid.Level5, blockdev.PageSize, capacity)
	if err != nil {
		return nil, err
	}
	return newBaseline(k, arr, ssds, volume, true)
}

// newBaseline assembles k over the given cache volume and its SSDs, in
// front of a primary of volume bytes.
func newBaseline(k Baseline, cacheDev blockdev.Device, ssds []blockdev.Device, volume int64, writeBack bool) (bench.Cache, error) {
	prim, err := newPrimary(volume)
	if err != nil {
		return nil, err
	}
	d := baseline.Devices{Cache: cacheDev, SSDs: ssds, Primary: prim}
	if k == Bcache {
		return baseline.NewBcache(d, writeBack)
	}
	return baseline.NewFlashcache(d, writeBack)
}

// The primary is the prototype's 8-HDD RAID-10: four data spindles striped
// in 64 KiB units. It is not scaled: a run's span sets its size.
const (
	spindles     = 4
	stripeUnit   = 64 << 10
	primarySlack = 64 << 20 // per spindle, beyond a run's span
)

// PrimaryVolume is the primary volume a run over span bytes gets: the span
// plus 64 MiB of slack per data spindle, in whole stripes. A primary built
// for it has exactly this capacity.
func PrimaryVolume(span int64) int64 {
	v := span + spindles*primarySlack
	return v - v%(spindles*stripeUnit)
}

// newPrimary builds the primary of volume bytes, rounded down to whole
// stripes. A volume below one stripe is refused: it rounds to no disk at
// all, which primary.Config would read as its default size.
func newPrimary(volume int64) (*primary.Storage, error) {
	perDisk := volume / spindles
	perDisk -= perDisk % stripeUnit
	if perDisk <= 0 {
		return nil, fmt.Errorf("experiments: primary volume %d B is below one %d B stripe", volume, spindles*stripeUnit)
	}
	return primary.New(primary.Config{DiskCapacity: perDisk})
}
