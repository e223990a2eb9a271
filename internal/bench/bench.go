// Package bench is the experiment runner: it drives a storage system (raw
// device, RAID volume, or cache) with a closed-loop workload in virtual
// time — a fixed number of outstanding request slots, modelling FIO's
// threads × iodepth and the paper's 4-threads-per-trace replayer — and
// reports throughput, latency, and amplification metrics.
package bench

import (
	"container/heap"
	"errors"
	"fmt"

	"srccache/internal/blockdev"
	"srccache/internal/stats"
	"srccache/internal/vtime"
	"srccache/internal/workload"
)

// System is anything the runner can drive.
type System interface {
	Submit(at vtime.Time, req blockdev.Request) (vtime.Time, error)
	Flush(at vtime.Time) (vtime.Time, error)
}

// Counters is the cache-level accounting every cache implementation
// exposes; the paper's hit-ratio and amplification metrics derive from it.
type Counters struct {
	// Reads/Writes count host requests; ReadHits counts reads served from
	// the cache.
	Reads, Writes int64
	ReadBytes     int64
	WriteBytes    int64
	ReadHits      int64
	ReadHitBytes  int64
	// FillBytes is miss data fetched from primary storage; DestageBytes is
	// dirty data written back to it.
	FillBytes    int64
	DestageBytes int64
	// GCCopyBytes is data moved SSD-to-SSD by cache-level GC (S2S).
	GCCopyBytes int64
	// GCSegments counts segments destaged from the dedicated GC buffer
	// (SeparateGCBuffer mode), i.e. segments holding only GC survivors.
	GCSegments int64
	// MetadataBytes and ParityBytes are cache-layout overhead written to
	// the SSDs.
	MetadataBytes, ParityBytes int64
	// SSDFlushes counts flush commands the cache issued to its SSDs.
	SSDFlushes int64
	// GroupReclaims counts Segment Groups reclaimed: trimmed on every
	// column and returned to the free pool.
	GroupReclaims int64
	// GCForcedS2D counts reclaim rounds that destaged where Sel-GC would
	// have copied, because the copies would not fit in the free segments.
	GCForcedS2D int64
}

// Add accumulates o into c, field by field: the sum over caches that share
// nothing (the engine's shards).
func (c *Counters) Add(o Counters) {
	c.Reads += o.Reads
	c.Writes += o.Writes
	c.ReadBytes += o.ReadBytes
	c.WriteBytes += o.WriteBytes
	c.ReadHits += o.ReadHits
	c.ReadHitBytes += o.ReadHitBytes
	c.FillBytes += o.FillBytes
	c.DestageBytes += o.DestageBytes
	c.GCCopyBytes += o.GCCopyBytes
	c.GCSegments += o.GCSegments
	c.MetadataBytes += o.MetadataBytes
	c.ParityBytes += o.ParityBytes
	c.SSDFlushes += o.SSDFlushes
	c.GroupReclaims += o.GroupReclaims
	c.GCForcedS2D += o.GCForcedS2D
}

// HitRatio reports read hits over reads, zero when no reads ran.
func (c Counters) HitRatio() float64 {
	if c.Reads == 0 {
		return 0
	}
	return float64(c.ReadHits) / float64(c.Reads)
}

// Cache extends System with the introspection the experiments need.
type Cache interface {
	System
	Counters() Counters
	// CacheDevices returns the SSDs, for device-level traffic accounting.
	CacheDevices() []blockdev.Device
}

// Options configures a run.
type Options struct {
	// Slots is the number of outstanding requests (threads × iodepth);
	// default 4.
	Slots int
	// SlotsPerSource overrides slot allocation when several sources run
	// concurrently: each source gets this many dedicated slots (the
	// paper's "each trace replayed by four threads"). When set, Slots is
	// ignored.
	SlotsPerSource int
	// MaxRequests bounds the total requests issued (0 = until sources
	// end; requires finite sources).
	MaxRequests int64
	// Start is the virtual time the run begins at (preconditioning may
	// have advanced device clocks past zero).
	Start vtime.Time
	// Interleave, when non-nil, runs after each completed request with its
	// completion time — background work (rebuild, scrub) riding along with
	// foreground traffic. A returned time later than the request's
	// completion delays the slot's next request, modeling the background
	// work's device occupancy.
	Interleave func(at vtime.Time) (vtime.Time, error)
}

// Result summarizes a run. The per-op request and byte buckets partition
// the totals: ReadRequests+WriteRequests+TrimRequests == Requests and
// likewise for bytes, so trim-heavy traces can no longer silently
// misattribute throughput to the read/write mix.
type Result struct {
	Requests      int64
	ReadRequests  int64
	WriteRequests int64
	TrimRequests  int64
	Bytes         int64
	ReadBytes     int64
	WriteBytes    int64
	TrimBytes     int64
	Start, End    vtime.Time
	Latency       stats.Histogram
}

// count attributes one submitted request to its op bucket and the totals.
func (r *Result) count(req blockdev.Request) {
	r.Requests++
	r.Bytes += req.Len
	switch req.Op {
	case blockdev.OpRead:
		r.ReadRequests++
		r.ReadBytes += req.Len
	case blockdev.OpWrite:
		r.WriteRequests++
		r.WriteBytes += req.Len
	case blockdev.OpTrim:
		r.TrimRequests++
		r.TrimBytes += req.Len
	}
}

// Makespan is the virtual time the run occupied.
func (r *Result) Makespan() vtime.Duration { return r.End.Sub(r.Start) }

// MBps reports end-to-end throughput in decimal MB/s, the paper's headline
// metric.
func (r *Result) MBps() float64 { return vtime.MBPerSec(r.Bytes, r.Makespan()) }

// IOPS reports requests per second of virtual time.
func (r *Result) IOPS() float64 {
	if r.Makespan() <= 0 {
		return 0
	}
	return float64(r.Requests) / r.Makespan().Seconds()
}

// slotHeap orders outstanding slots by the time they free up.
type slotEvent struct {
	at   vtime.Time
	slot int
}

type slotHeap []slotEvent

func (h slotHeap) Len() int           { return len(h) }
func (h slotHeap) Less(i, j int) bool { return h[i].at < h[j].at }
func (h slotHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *slotHeap) Push(x any)        { *h = append(*h, x.(slotEvent)) }
func (h *slotHeap) Pop() any          { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }

// Run drives sys with the sources until MaxRequests or exhaustion.
func Run(sys System, sources []workload.Source, opt Options) (*Result, error) {
	if len(sources) == 0 {
		return nil, errors.New("bench: no workload sources")
	}
	perSource := opt.SlotsPerSource
	var slots int
	if perSource > 0 {
		slots = perSource * len(sources)
	} else {
		slots = opt.Slots
		if slots <= 0 {
			slots = 4
		}
		if slots < len(sources) {
			slots = len(sources)
		}
		perSource = slots / len(sources)
		if perSource == 0 {
			perSource = 1
		}
		slots = perSource * len(sources)
	}
	if opt.MaxRequests == 0 {
		// Guard against infinite sources running forever.
		for _, s := range sources {
			if _, inf := s.(*workload.Generator); inf {
				return nil, errors.New("bench: infinite generator requires MaxRequests")
			}
		}
	}

	res := &Result{Start: opt.Start, End: opt.Start}
	h := make(slotHeap, 0, slots)
	for i := 0; i < slots; i++ {
		h = append(h, slotEvent{at: opt.Start, slot: i})
	}
	heap.Init(&h)

	for h.Len() > 0 {
		if opt.MaxRequests > 0 && res.Requests >= opt.MaxRequests {
			break
		}
		ev := heap.Pop(&h).(slotEvent)
		src := sources[ev.slot/perSource]
		req, ok := src.Next()
		if !ok {
			continue // source exhausted: retire the slot
		}
		done, err := sys.Submit(ev.at, req)
		if err != nil {
			return res, fmt.Errorf("bench: %v at %v: %w", req, ev.at, err)
		}
		res.count(req)
		res.Latency.Observe(done.Sub(ev.at))
		if opt.Interleave != nil {
			t, err := opt.Interleave(done)
			if err != nil {
				return res, fmt.Errorf("bench: interleaved work at %v: %w", done, err)
			}
			done = vtime.Max(done, t)
		}
		if done > res.End {
			res.End = done
		}
		heap.Push(&h, slotEvent{at: done, slot: ev.slot})
	}
	return res, nil
}

// SnapshotDevices copies the current stats of each device, for before/after
// traffic deltas.
func SnapshotDevices(devs []blockdev.Device) []blockdev.Stats {
	out := make([]blockdev.Stats, len(devs))
	for i, d := range devs {
		out[i] = *d.Stats()
	}
	return out
}

// DeltaBytes sums read+write traffic accumulated since the snapshot.
func DeltaBytes(devs []blockdev.Device, before []blockdev.Stats) int64 {
	var n int64
	for i, d := range devs {
		s := d.Stats()
		n += s.TotalBytes() - before[i].TotalBytes()
	}
	return n
}

// IOAmplification is device traffic per host byte: the paper's metric of
// "observed I/Os at the cache layer divided by actual I/Os requested".
func IOAmplification(hostBytes, deviceBytes int64) float64 {
	if hostBytes == 0 {
		return 0
	}
	return float64(deviceBytes) / float64(hostBytes)
}
