package engine

import (
	"fmt"

	"srccache/internal/blockdev"
	"srccache/internal/src"
	"srccache/internal/vtime"
)

// ShardSpec sizes the memory-backed shard caches MemShardBuilder produces.
// The defaults give a small, GC-exercising cache: 4 SSDs striped RAID-5,
// 4 MiB erase groups and ShardBytes/16 of cache per SSD (cachePerSSD).
type ShardSpec struct {
	// ShardBytes is the per-shard primary capacity (required, a multiple
	// of the engine stripe size).
	ShardBytes int64
	// SSDs per shard (default 4; RAID-5 needs at least 3).
	SSDs int
	// EraseGroupSize (default 4 MiB) and SegmentColumn (default 64 KiB)
	// shrink the paper's units so small shards still cycle through GC.
	EraseGroupSize int64
	SegmentColumn  int64
	// DeviceLatency is the per-op latency of the simulated devices
	// (default 0: the wall-clock benchmark measures engine CPU cost, not
	// simulated device time).
	DeviceLatency vtime.Duration
	// Mutate, when non-nil, adjusts the assembled config (policies,
	// flush cadence) before the cache is built.
	Mutate func(*src.Config)
}

func (s ShardSpec) withDefaults() ShardSpec {
	if s.SSDs == 0 {
		s.SSDs = 4
	}
	if s.EraseGroupSize == 0 {
		s.EraseGroupSize = 4 << 20
	}
	if s.SegmentColumn == 0 {
		s.SegmentColumn = 64 << 10
	}
	return s
}

// cachePerSSD is the cache region per SSD: ShardBytes/16 rounded up to an
// erase-group multiple, superblock + 3 working groups minimum.
func (s ShardSpec) cachePerSSD() int64 {
	n := (s.ShardBytes/16 + s.EraseGroupSize - 1) / s.EraseGroupSize
	return max(n, 4) * s.EraseGroupSize
}

// MemShardBuilder returns a New-compatible builder producing identical
// memory-backed shard caches: a MemDevice primary of ShardBytes and SSDs
// MemDevices carrying the SRC layout. Used by netblockd's engine mode, the
// benchmark suite, and tests.
func MemShardBuilder(spec ShardSpec) (func(i int) (*src.Cache, error), error) {
	spec = spec.withDefaults()
	if spec.ShardBytes <= 0 || spec.ShardBytes%blockdev.PageSize != 0 {
		return nil, fmt.Errorf("engine: shard bytes %d must be a positive page multiple", spec.ShardBytes)
	}
	cachePerSSD := spec.cachePerSSD()
	return func(i int) (*src.Cache, error) {
		ssds := make([]blockdev.Device, spec.SSDs)
		for j := range ssds {
			ssds[j] = blockdev.NewMemDevice(cachePerSSD, spec.DeviceLatency)
		}
		cfg := src.Config{
			SSDs:           ssds,
			Primary:        blockdev.NewMemDevice(spec.ShardBytes, spec.DeviceLatency),
			CachePerSSD:    cachePerSSD,
			EraseGroupSize: spec.EraseGroupSize,
			SegmentColumn:  spec.SegmentColumn,
		}
		if spec.Mutate != nil {
			spec.Mutate(&cfg)
		}
		return src.New(cfg)
	}, nil
}
