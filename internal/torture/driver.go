package torture

import (
	"fmt"
	"maps"
	"math/rand"

	"srccache/internal/blockdev"
	"srccache/internal/src"
	"srccache/internal/vtime"
)

// Geometry: deliberately tiny so a few hundred operations wrap the log and
// engage GC, the crash-ordering-critical path. 4 SSDs of 2 MiB with 256 KiB
// erase groups gives 8 segment groups per drive; 16 KiB segment columns are
// 4 pages — MS, two payload pages, ME.
const (
	numSSD  = 4
	ssdCap  = 2 << 20
	primCap = 16 << 20
	egs     = 256 << 10
	segCol  = 16 << 10
	span    = 256 // logical pages the workload touches
)

// epoch is one flush-epoch snapshot: the devices' contents (committed state
// plus the volatile write log) and the model of what the cache had
// acknowledged at that point.
type epoch struct {
	idx int // epoch sequence number within the cell run
	op  int // workload op after which the snapshot was taken
	at  vtime.Time
	// ssds are Content clones with their volatile write logs intact; prim
	// is a committed clone (primary storage is durable by fiat, as in the
	// paper's battery-backed HDD RAID setting).
	ssds []*blockdev.Content
	prim *blockdev.Content
	// latest maps lba -> newest acknowledged version; durable maps
	// lba -> newest version covered by an explicit Flush that completed a
	// device barrier — the only point where acknowledged data is provably
	// drained from the RAM buffers and committed past the drive caches.
	latest  map[int64]uint64
	durable map[int64]uint64
}

// burstTracker watches per-device flush completions and counts full bursts:
// a burst ends when every column has flushed at least once, which is how
// the cache's flushSSDs barrier presents at the device boundary.
type burstTracker struct {
	flushed []bool
	bursts  int
}

func (b *burstTracker) note(idx int) {
	b.flushed[idx] = true
	for _, f := range b.flushed {
		if !f {
			return
		}
	}
	for i := range b.flushed {
		b.flushed[i] = false
	}
	b.bursts++
}

// flushTap wraps a device to observe its flushes; all other behavior is the
// embedded device's.
type flushTap struct {
	blockdev.Device
	burst *burstTracker
	idx   int
}

func (f *flushTap) Flush(at vtime.Time) (vtime.Time, error) {
	t, err := f.Device.Flush(at)
	if err == nil {
		f.burst.note(f.idx)
	}
	return t, err
}

// cellRun drives one configuration cell: workload, epoch snapshots, trials.
type cellRun struct {
	opts  Options
	cell  Cell
	rng   *rand.Rand
	cache *src.Cache
	ssds  []*blockdev.MemDevice
	burst *burstTracker
	prim  *blockdev.MemDevice
	at    vtime.Time

	latest  map[int64]uint64
	durable map[int64]uint64

	epochs   []epoch
	stride   int // epoch retention stride (doubles when maxEpochs overflows)
	epochSeq int
	maxLoss  int
}

func newCellRun(o Options, cell Cell) (*cellRun, error) {
	r := &cellRun{
		opts:    o,
		cell:    cell,
		rng:     rand.New(rand.NewSource(o.Seed*1000003 + cellSalt(cell))),
		burst:   &burstTracker{flushed: make([]bool, numSSD)},
		latest:  make(map[int64]uint64),
		durable: make(map[int64]uint64),
		stride:  1,
	}
	devs := make([]blockdev.Device, numSSD)
	r.ssds = make([]*blockdev.MemDevice, numSSD)
	for i := range devs {
		m := blockdev.NewMemDevice(ssdCap, 10*vtime.Microsecond)
		r.ssds[i] = m
		devs[i] = &flushTap{Device: m, burst: r.burst, idx: i}
	}
	r.prim = blockdev.NewMemDevice(primCap, vtime.Millisecond)
	cache, err := r.newCache(devs, r.prim)
	if err != nil {
		return nil, err
	}
	r.cache = cache
	return r, nil
}

// newCache assembles the cell's cache over ssds and prim. Every cache a
// cell builds — the live one, the loss probe's and each trial's — has this
// shape.
func (r *cellRun) newCache(ssds []blockdev.Device, prim blockdev.Device) (*src.Cache, error) {
	return src.New(src.Config{
		SSDs:           ssds,
		Primary:        prim,
		EraseGroupSize: egs,
		SegmentColumn:  segCol,
		GC:             src.SelGC,
		Victim:         r.cell.Victim,
		Parity:         r.cell.Parity,
		Flush:          r.cell.Flush,
		TrackContent:   true,
	})
}

// cellSalt folds a cell into the rng seed so each cell gets an independent
// but reproducible workload.
func cellSalt(c Cell) int64 {
	return int64(c.Flush)*100 + int64(c.Parity)*10 + int64(c.Victim)
}

// workload runs the seeded operation mix, advancing the durability model at
// every observed flush barrier and snapshotting epochs.
func (r *cellRun) workload() error {
	// FlushNever produces no barriers, so epochs are sampled on a fixed
	// cadence instead; durable stays empty and trials check only the
	// detection-grade invariants.
	const neverCadence = ops / maxEpochs
	for op := 0; op < ops; op++ {
		r.burst.bursts = 0
		reclaims := r.cache.Counters().GroupReclaims
		explicitFlush := false
		switch p := r.rng.Float64(); {
		case p < 0.62:
			lba := r.rng.Int63n(span - 4)
			n := 1 + r.rng.Int63n(4)
			done, err := r.cache.Submit(r.at, blockdev.Request{
				Op: blockdev.OpWrite, Off: lba * blockdev.PageSize, Len: n * blockdev.PageSize,
			})
			if err != nil {
				return fmt.Errorf("op %d write [%d,%d): %w", op, lba, lba+n, err)
			}
			r.at = vtime.Max(r.at, done)
			for p := lba; p < lba+n; p++ {
				r.latest[p]++
			}
		case p < 0.82:
			lba := r.rng.Int63n(span - 4)
			n := 1 + r.rng.Int63n(4)
			done, err := r.cache.Submit(r.at, blockdev.Request{
				Op: blockdev.OpRead, Off: lba * blockdev.PageSize, Len: n * blockdev.PageSize,
			})
			if err != nil {
				return fmt.Errorf("op %d read [%d,%d): %w", op, lba, lba+n, err)
			}
			r.at = vtime.Max(r.at, done)
		default:
			done, err := r.cache.Flush(r.at)
			if err != nil {
				return fmt.Errorf("op %d flush: %w", op, err)
			}
			r.at = vtime.Max(r.at, done)
			explicitFlush = true
		}
		if r.burst.bursts > 0 {
			// A full device barrier completed during this operation.
			// Durability only advances on an explicit Flush: that is the
			// call that drains the RAM segment buffers before the barrier,
			// so everything acknowledged beforehand is on media and
			// flushed. A barrier inside a write (segment-driven flush)
			// proves nothing about pages still sitting in the buffers —
			// acknowledged, in RAM, not durable.
			if explicitFlush {
				r.durable = maps.Clone(r.latest)
			}
			r.snapshot(op)
		} else if r.cache.Counters().GroupReclaims > reclaims ||
			r.cell.Flush == src.FlushNever && op%neverCadence == neverCadence-1 {
			// A reclaim trimmed a group: its trim, and the copies that must
			// be durable before it, sit in the write logs until the next
			// barrier, so crash there too.
			r.snapshot(op)
		}
		if op%16 == 15 {
			// Sample the realized data-loss window on a fixed cadence, not
			// at epoch instants: epochs sit right after barriers, where
			// every policy looks artificially tight.
			w, err := r.lossProbe()
			if err != nil {
				return fmt.Errorf("op %d loss probe: %w", op, err)
			}
			if w > r.maxLoss {
				r.maxLoss = w
			}
		}
	}
	return nil
}

// lossProbe measures how many pages a total crash at this instant would
// regress below their newest acknowledged version — the exposure the flush
// policy trades against flush traffic: the oracle's strict page check with
// every acknowledged version taken as durable.
func (r *cellRun) lossProbe() (int, error) {
	devs := make([]blockdev.Device, numSSD)
	for i, d := range r.ssds {
		cc := d.Content().Clone()
		cc.Crash()
		devs[i] = blockdev.NewMemDeviceWithContent(cc, 0)
	}
	pc := r.prim.Content().Clone()
	pc.FlushContent()
	cache, err := r.newCache(devs, blockdev.NewMemDeviceWithContent(pc, 0))
	if err != nil {
		return 0, err
	}
	if _, err := cache.Recover(); err != nil {
		return 0, err
	}
	o := Oracle{Cache: cache, Primary: pc, Latest: r.latest, Durable: r.latest}
	lost := 0
	for lba := int64(0); lba < span; lba++ {
		if o.Page(0, lba, true, false) != nil {
			lost++
		}
	}
	return lost, nil
}

// snapshot captures the current epoch, thinning retained epochs to
// maxEpochs by doubling the keep stride — deterministic and spread over
// the whole run rather than clustered at the end.
func (r *cellRun) snapshot(op int) {
	idx := r.epochSeq
	r.epochSeq++
	if idx%r.stride != 0 {
		return
	}
	ep := epoch{
		idx:     idx,
		op:      op,
		at:      r.at,
		ssds:    make([]*blockdev.Content, numSSD),
		latest:  maps.Clone(r.latest),
		durable: maps.Clone(r.durable),
	}
	for i, d := range r.ssds {
		ep.ssds[i] = d.Content().Clone()
	}
	ep.prim = r.prim.Content().Clone()
	ep.prim.FlushContent() // primary storage is durable by fiat
	r.epochs = append(r.epochs, ep)
	if len(r.epochs) > maxEpochs {
		r.stride *= 2
		kept := r.epochs[:0]
		for _, e := range r.epochs {
			if e.idx%r.stride == 0 {
				kept = append(kept, e)
			}
		}
		r.epochs = kept
	}
}
