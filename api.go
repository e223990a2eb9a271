package srccache

import (
	"srccache/internal/bench"
	"srccache/internal/blockdev"
	"srccache/internal/experiments"
	"srccache/internal/primary"
	"srccache/internal/src"
	"srccache/internal/ssd"
	"srccache/internal/trace"
	"srccache/internal/vtime"
	"srccache/internal/workload"
)

// Virtual-time primitives. All devices and caches operate in virtual time;
// runs are deterministic and independent of host hardware.
type (
	// Time is an instant of virtual time (nanoseconds from simulation
	// start).
	Time = vtime.Time
	// Duration is a span of virtual time.
	Duration = vtime.Duration
)

// Block-device vocabulary.
type (
	// Request is one block I/O (page-aligned byte offset and length).
	Request = blockdev.Request
	// Op identifies a request kind.
	Op = blockdev.Op
	// Device is a block device operating in virtual time.
	Device = blockdev.Device
	// DeviceStats carries per-device traffic counters.
	DeviceStats = blockdev.Stats
)

// Request operations.
const (
	OpRead  = blockdev.OpRead
	OpWrite = blockdev.OpWrite
	OpTrim  = blockdev.OpTrim
)

// PageSize is the caching and addressing unit (4 KiB).
const PageSize = blockdev.PageSize

// FaultPlan wraps any Device with explicit fault injection: fail-stop
// (Fail/Repair), latent sector errors (ErrUnreadable) and transient errors.
type FaultPlan = blockdev.FaultPlan

// NewFaultPlan wraps a device for fault injection.
func NewFaultPlan(dev Device) *FaultPlan { return blockdev.NewFaultPlan(dev) }

// Tag is the 16-byte content fingerprint of one page; DataTag derives the
// canonical tag for a (logical block, version) pair.
type Tag = blockdev.Tag

// DataTag derives the content tag for version v of logical block lba.
func DataTag(lba int64, version uint64) Tag { return blockdev.DataTag(lba, version) }

// The SRC cache (the paper's contribution).
type (
	// Cache is an SRC instance.
	Cache = src.Cache
	// CacheConfig assembles a Cache; zero fields take the paper's
	// defaults (Table 7).
	CacheConfig = src.Config
	// GCPolicy selects S2D or SelGC free-space reclamation.
	GCPolicy = src.GCPolicy
	// VictimPolicy selects FIFO, Greedy or CostBenefit victim groups.
	VictimPolicy = src.VictimPolicy
	// ParityMode selects PC or NPC clean-data redundancy.
	ParityMode = src.ParityMode
	// CacheRAIDLevel selects the cache-level striping.
	CacheRAIDLevel = src.RAIDLevel
	// FlushPolicy selects the flush-command cadence.
	FlushPolicy = src.FlushPolicy
)

// SRC design-space values (paper Table 7; defaults in bold there are the
// zero-value defaults here).
const (
	S2D         = src.S2D
	SelGC       = src.SelGC
	FIFO        = src.FIFO
	Greedy      = src.Greedy
	CostBenefit = src.CostBenefit
	PC          = src.PC
	NPC         = src.NPC
	RAID0       = src.RAID0
	RAID4       = src.RAID4
	RAID5       = src.RAID5

	FlushPerSegment      = src.FlushPerSegment
	FlushPerSegmentGroup = src.FlushPerSegmentGroup
	FlushNever           = src.FlushNever
)

// NewCache assembles an SRC cache from cfg.
func NewCache(cfg CacheConfig) (*Cache, error) { return src.New(cfg) }

// Simulated devices.
type (
	// SSD is a simulated flash drive (hybrid FTL, write cache, TRIM,
	// wear accounting).
	SSD = ssd.SSD
	// SSDConfig parameterizes an SSD.
	SSDConfig = ssd.Config
	// Primary is the networked HDD-RAID-10 backing store.
	Primary = primary.Storage
	// PrimaryConfig parameterizes the backing store.
	PrimaryConfig = primary.Config
)

// SSD product presets (paper Tables 4 and 12).
var (
	SATAMLCConfig = ssd.SATAMLCConfig
	SATATLCConfig = ssd.SATATLCConfig
	NVMeMLCConfig = ssd.NVMeMLCConfig
)

// NewSSD builds a simulated flash drive.
func NewSSD(cfg SSDConfig) (*SSD, error) { return ssd.New(cfg) }

// NewPrimary builds the networked backing store.
func NewPrimary(cfg PrimaryConfig) (*Primary, error) { return primary.New(cfg) }

// Workloads and benchmarking.
type (
	// WorkloadSource yields requests for the benchmark runner.
	WorkloadSource = workload.Source
	// WorkloadConfig parameterizes the FIO-like generator.
	WorkloadConfig = workload.Config
	// TraceSpec describes a trace by its published statistics (Table 6).
	TraceSpec = trace.Spec
	// TraceSynthConfig parameterizes synthetic trace generation.
	TraceSynthConfig = trace.SynthConfig
	// BenchOptions configures a closed-loop run.
	BenchOptions = bench.Options
	// BenchResult summarizes a run.
	BenchResult = bench.Result
	// CacheCounters carries cache-level accounting (hits, destages,
	// copies, overheads).
	CacheCounters = bench.Counters
)

// Workload access patterns.
const (
	UniformRandom = workload.UniformRandom
	Sequential    = workload.Sequential
	Zipf          = workload.Zipf
)

// NewWorkload builds an FIO-like request generator.
func NewWorkload(cfg WorkloadConfig) (*workload.Generator, error) {
	return workload.NewGenerator(cfg)
}

// NewTraceSynth builds a synthetic trace source from published statistics.
func NewTraceSynth(cfg TraceSynthConfig) (*trace.Synth, error) {
	return trace.NewSynth(cfg)
}

// TraceGroup returns the paper's Table 6 trace set with the given name
// ("Write", "Mixed", or "Read").
func TraceGroup(name string) ([]TraceSpec, error) { return trace.Group(name) }

// RunBench drives a system (cache or raw device) with the sources in a
// closed loop and reports throughput and latency.
func RunBench(sys bench.System, sources []WorkloadSource, opt BenchOptions) (*BenchResult, error) {
	return bench.Run(sys, sources, opt)
}

// SystemConfig assembles a complete simulated deployment: the paper's
// prototype at 1/16 scale (DESIGN.md §6), an SSD array of four drives
// fronting networked primary storage, wired into an SRC cache. Zero fields
// take the defaults.
type SystemConfig struct {
	// SSDCapacity is the per-drive cache region in bytes (default
	// 256 MiB; must be a multiple of the testbed's erase group).
	SSDCapacity int64
	// PrimaryCapacity is the backing volume size (default 2 GiB).
	PrimaryCapacity int64
	// Cache overrides SRC parameters other than SSDs/Primary (GC policy,
	// parity mode, content tracking, and so on); a zero erase group or
	// segment column takes the testbed's.
	Cache CacheConfig
}

// System is an assembled deployment.
type System struct {
	Cache   *Cache
	SSDs    []*SSD
	Primary *Primary
}

// NewSystem builds a complete simulated deployment on the testbed the
// experiments use.
func NewSystem(cfg SystemConfig) (*System, error) {
	if cfg.SSDCapacity == 0 {
		cfg.SSDCapacity = 256 << 20
	}
	if cfg.PrimaryCapacity == 0 {
		cfg.PrimaryCapacity = 2 << 30
	}
	cache, err := experiments.Options{}.SRC(cfg.SSDCapacity, cfg.PrimaryCapacity, func(c *src.Config) {
		user := cfg.Cache
		user.SSDs, user.Primary = c.SSDs, c.Primary
		if user.EraseGroupSize == 0 {
			user.EraseGroupSize = c.EraseGroupSize
		}
		if user.SegmentColumn == 0 {
			user.SegmentColumn = c.SegmentColumn
		}
		*c = user
	})
	if err != nil {
		return nil, err
	}
	sys := &System{Cache: cache, Primary: cache.Primary().(*Primary)}
	for _, d := range cache.CacheDevices() {
		sys.SSDs = append(sys.SSDs, d.(*SSD))
	}
	return sys, nil
}
