package ssd

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"srccache/internal/blockdev"
	"srccache/internal/vtime"
)

// testConfig is a small, fast SSD: 64 MiB capacity, 4 MiB erase groups
// (16 granules), 1 MiB blocks.
func testConfig() Config {
	return Config{
		Name:           "test",
		Capacity:       64 << 20,
		EraseGroupSize: 4 << 20,
		Parallelism:    4,
	}
}

func newTestSSD(t *testing.T, cfg Config) *SSD {
	t.Helper()
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// fill writes the whole device sequentially in chunk-sized requests,
// starting at time at, and returns the time the last write was acknowledged.
func fill(t *testing.T, d *SSD, chunk int64, at vtime.Time) vtime.Time {
	t.Helper()
	for off := int64(0); off < d.Capacity(); off += chunk {
		var err error
		at, err = d.Submit(at, blockdev.Request{Op: blockdev.OpWrite, Off: off, Len: chunk})
		if err != nil {
			t.Fatalf("fill write at %d: %v", off, err)
		}
	}
	return at
}

func TestConfigValidation(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{"zero capacity", func(c *Config) { c.Capacity = 0 }},
		{"erase group not block multiple", func(c *Config) { c.EraseGroupSize = 100 }},
		{"unaligned capacity", func(c *Config) { c.Capacity = 4097 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := testConfig()
			tt.mutate(&cfg)
			if _, err := New(cfg); err == nil {
				t.Fatal("New accepted invalid config")
			}
		})
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg, err := (Config{Capacity: 1 << 30}).Validate()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.EraseGroupSize != 256<<20 {
		t.Fatalf("default erase group = %d", cfg.EraseGroupSize)
	}
	if cfg.Cell != MLC || cfg.EnduranceCycles != 3000 {
		t.Fatalf("default cell %v endurance %d", cfg.Cell, cfg.EnduranceCycles)
	}
	if cfg.SustainedProgramRate() <= 0 {
		t.Fatal("sustained rate not positive")
	}
}

func TestPresetsDiffer(t *testing.T) {
	mlc := SATAMLCConfig("a", 1<<30)
	tlc := SATATLCConfig("b", 1<<30)
	nvme := NVMeMLCConfig("c", 1<<30)
	if !(tlc.ProgramLatency > mlc.ProgramLatency) {
		t.Fatal("TLC should program slower than MLC")
	}
	if !(tlc.EnduranceCycles < mlc.EnduranceCycles) {
		t.Fatal("TLC should endure fewer cycles")
	}
	if !(nvme.LinkBandwidth > 4*mlc.LinkBandwidth) {
		t.Fatal("NVMe link should be much faster than SATA")
	}
}

func TestWriteReadRoundTripTiming(t *testing.T) {
	d := newTestSSD(t, testConfig())
	ack, err := d.Submit(0, blockdev.Request{Op: blockdev.OpWrite, Off: 0, Len: blockdev.PageSize})
	if err != nil {
		t.Fatal(err)
	}
	if ack <= 0 {
		t.Fatalf("write ack at %v", ack)
	}
	done, err := d.Submit(ack, blockdev.Request{Op: blockdev.OpRead, Off: 0, Len: blockdev.PageSize})
	if err != nil {
		t.Fatal(err)
	}
	if done <= ack {
		t.Fatalf("read done %v not after submit %v", done, ack)
	}
	if d.Stats().WriteOps != 1 || d.Stats().ReadOps != 1 {
		t.Fatalf("stats %+v", d.Stats())
	}
}

func TestReadOfUnmappedPageSkipsFlash(t *testing.T) {
	d := newTestSSD(t, testConfig())
	before := d.nand.Stats().PagesRead
	if _, err := d.Submit(0, blockdev.Request{Op: blockdev.OpRead, Off: 0, Len: blockdev.PageSize}); err != nil {
		t.Fatal(err)
	}
	if d.nand.Stats().PagesRead != before {
		t.Fatal("unmapped read touched flash")
	}
}

func TestSequentialFillNoGC(t *testing.T) {
	d := newTestSSD(t, testConfig())
	fill(t, d, 1<<20, 0)
	if d.gcPageCopies != 0 {
		t.Fatalf("sequential fill triggered %d GC copies", d.gcPageCopies)
	}
	if waf := d.WAF(); waf != 1.0 {
		t.Fatalf("sequential fill WAF = %v, want 1.0", waf)
	}
}

func TestAlignedOverwriteKeepsWAFNearOne(t *testing.T) {
	d := newTestSSD(t, testConfig())
	egs := d.Config().EraseGroupSize
	at := fill(t, d, egs, 0)
	// Three more full passes in erase-group-sized requests: victims are
	// always fully invalid, so GC copies stay at zero.
	for i := 0; i < 3; i++ {
		at = fill(t, d, egs, at)
	}
	if waf := d.WAF(); waf > 1.01 {
		t.Fatalf("aligned overwrite WAF = %v, want ~1.0 (gc copies %d)", waf, d.gcPageCopies)
	}
}

func TestRandomOverwriteAmplifies(t *testing.T) {
	d := newTestSSD(t, testConfig())
	at := fill(t, d, 1<<20, 0)
	rng := rand.New(rand.NewSource(1))
	pages := d.Capacity() / blockdev.PageSize
	// Overwrite 2x the device capacity in random 4K writes.
	for i := int64(0); i < 2*pages; i++ {
		off := rng.Int63n(pages) * blockdev.PageSize
		var err error
		at, err = d.Submit(at, blockdev.Request{Op: blockdev.OpWrite, Off: off, Len: blockdev.PageSize})
		if err != nil {
			t.Fatal(err)
		}
	}
	if waf := d.WAF(); waf < 1.3 {
		t.Fatalf("random overwrite WAF = %v, want noticeably above 1", waf)
	}
	if d.gcPageCopies == 0 {
		t.Fatal("random overwrite never garbage collected")
	}
}

func TestTrimRestoresFreeSpace(t *testing.T) {
	d := newTestSSD(t, testConfig())
	at := fill(t, d, 1<<20, 0)
	if _, err := d.Submit(at, blockdev.Request{Op: blockdev.OpTrim, Off: 0, Len: d.Capacity()}); err != nil {
		t.Fatal(err)
	}
	// Trim alone does not erase, but subsequent fills reclaim the trimmed
	// groups without copying a single page.
	copiesBefore := d.gcPageCopies
	at = fill(t, d, 1<<20, at)
	fill(t, d, 1<<20, at)
	if d.gcPageCopies != copiesBefore {
		t.Fatalf("fill after trim copied %d pages", d.gcPageCopies-copiesBefore)
	}
	if len(d.freeSBs) < 1 {
		t.Fatalf("free groups %d after trim+fill", len(d.freeSBs))
	}
}

func TestFlushDrainsWriteCache(t *testing.T) {
	d := newTestSSD(t, testConfig())
	ack, err := d.Submit(0, blockdev.Request{Op: blockdev.OpWrite, Off: 0, Len: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	fd, err := d.Flush(ack)
	if err != nil {
		t.Fatal(err)
	}
	// Flush must wait for programs to land plus the firmware cost, so it
	// finishes strictly after the (cached) write acknowledgement.
	if fd <= ack {
		t.Fatalf("flush done %v not after write ack %v", fd, ack)
	}
	if fd.Sub(ack) < flushLatency {
		t.Fatalf("flush cheaper than firmware cost: %v", fd.Sub(ack))
	}
	if d.Stats().Flushes != 1 {
		t.Fatalf("flush count %d", d.Stats().Flushes)
	}
}

func TestWriteCacheAbsorbsBurstThenThrottles(t *testing.T) {
	raw := testConfig()
	raw.WriteCacheBytes = 1 << 20
	d := newTestSSD(t, raw)
	cfg := d.Config() // validated: defaults filled in
	// A burst the size of the cache is acknowledged at roughly link speed.
	burst := int64(1 << 20)
	ack, err := d.Submit(0, blockdev.Request{Op: blockdev.OpWrite, Off: 0, Len: burst})
	if err != nil {
		t.Fatal(err)
	}
	linkTime := vtime.TransferTime(burst, cfg.LinkBandwidth)
	if ack > vtime.Time(0).Add(2*linkTime+vtime.Millisecond) {
		t.Fatalf("burst ack %v much slower than link %v", ack, linkTime)
	}
	// Sustained writes are throttled to the flash program rate.
	at := ack
	var total int64
	for off := burst; off < d.Capacity()-int64(4<<20); off += burst {
		at, err = d.Submit(at, blockdev.Request{Op: blockdev.OpWrite, Off: off, Len: burst})
		if err != nil {
			t.Fatal(err)
		}
		total += burst
	}
	gotRate := vtime.Rate(total, at.Sub(ack))
	sustained := cfg.SustainedProgramRate()
	if gotRate > sustained*1.15 {
		t.Fatalf("sustained rate %.0f exceeds flash ceiling %.0f", gotRate, sustained)
	}
	if gotRate < sustained*0.5 {
		t.Fatalf("sustained rate %.0f far below flash ceiling %.0f", gotRate, sustained)
	}
}

func TestOutOfRangeRejected(t *testing.T) {
	d := newTestSSD(t, testConfig())
	_, err := d.Submit(0, blockdev.Request{Op: blockdev.OpWrite, Off: d.Capacity(), Len: blockdev.PageSize})
	if !errors.Is(err, blockdev.ErrOutOfRange) {
		t.Fatalf("err = %v", err)
	}
}

func TestCrashLosesUnflushedContent(t *testing.T) {
	d := newTestSSD(t, testConfig())
	tag := blockdev.DataTag(1, 1)
	if err := d.Content().WriteTag(1, tag); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Flush(0); err != nil {
		t.Fatal(err)
	}
	if err := d.Content().WriteTag(2, blockdev.DataTag(2, 1)); err != nil {
		t.Fatal(err)
	}
	d.Content().Crash()
	if got, err := d.Content().ReadTag(1); err != nil {
		t.Fatal(err)
	} else if got != tag {
		t.Fatalf("flushed tag lost: %v", got)
	}
	if got, err := d.Content().ReadTag(2); err != nil {
		t.Fatal(err)
	} else if !got.IsZero() {
		t.Fatalf("unflushed tag survived crash: %v", got)
	}
}

func TestWearAccounting(t *testing.T) {
	d := newTestSSD(t, testConfig())
	at := fill(t, d, 1<<20, 0)
	for i := 0; i < 2; i++ {
		at = fill(t, d, 1<<20, at)
	}
	if d.MeanEraseCount() <= 0 {
		t.Fatal("no erases recorded after repeated fills")
	}
	if d.nand.Stats().Erases == 0 {
		t.Fatal("flash erase counter zero")
	}
}

// TestWornOutGroupsRetire drives blocks past their endurance: the FTL
// retires the erase group holding a worn-out block.
func TestWornOutGroupsRetire(t *testing.T) {
	cfg := testConfig()
	cfg.EnduranceCycles = 2
	d := newTestSSD(t, cfg)
	var at vtime.Time
	for i := int64(0); d.retiredGroups == 0; i++ {
		if i == 16*d.Capacity()>>20 {
			t.Fatal("no erase group retired after 16 full-device passes")
		}
		var err error
		off := i % (d.Capacity() >> 20) << 20
		if at, err = d.Submit(at, blockdev.Request{Op: blockdev.OpWrite, Off: off, Len: 1 << 20}); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	// A retired group never returns to the free pool.
	retired := 0
	for sb, st := range d.sbState {
		if st == groupRetired {
			retired++
			if slices.Contains(d.freeSBs, int32(sb)) {
				t.Fatalf("retired group %d is on the free list", sb)
			}
		}
	}
	if int64(retired) != d.retiredGroups {
		t.Fatalf("%d groups in the retired state, RetiredGroups reports %d", retired, d.retiredGroups)
	}
}
