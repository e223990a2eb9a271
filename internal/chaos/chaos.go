// Package chaos is the seeded fault-injection harness for the SRC cache.
// A Run drives one cache instance with a pseudo-random workload interleaved
// with a pseudo-random fault schedule — transient device errors, latent
// sector errors, silent corruption, fail-stop with hot-spare replacement and
// online rebuild, scrub passes, and crash/recovery cycles — while checking
// the durability contract after every hazard:
//
//   - the pages satisfy the oracle's invariants: after every crash in its
//     recovered mode (an acknowledged flush is never lost, no page holds a
//     version never acknowledged), and at spot checks and the end of the
//     run in its live mode (every cached page holds its newest version and
//     reads back verified);
//   - a column rebuild converges and the rebuilt data verifies;
//   - planted silent corruption is detected (and repaired) by the scrub.
//
// A run without faults is a cell of the crash matrix instead: the crash
// probe replays crash schedules at its barriers and reclaims (observe) and
// judges each recovered cache with the same oracle.
//
// Everything is a pure function of the Options: the workload, the fault
// schedule, the probe's crash schedules and the virtual-time
// interleavings, so any failure replays exactly.
package chaos

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"maps"
	"math/rand"

	"srccache/internal/bench"
	"srccache/internal/blockdev"
	"srccache/internal/src"
	"srccache/internal/vtime"
)

// Every run drives 4 SSDs with 16 KiB segment columns (4 pages per column)
// through 800 schedule steps, on one of two shapes: SSD and primary
// capacity, erase group size, and the pages the workload touches.
const (
	numSSD = 4
	segCol = 16 << 10
	steps  = 800
)

type shape struct{ ssdCap, primCap, egs, span int64 }

var (
	// faultShape mirrors the src package's test environment (16 MiB SSDs,
	// 1 MiB groups): small enough that GC, partial segments and recovery
	// all engage within a few hundred operations.
	faultShape = shape{ssdCap: 16 << 20, primCap: 64 << 20, egs: 1 << 20, span: 4096}
	// matrixShape has 8 groups of 256 KiB per SSD, so a crash trial
	// recovers in microseconds. DESIGN.md §10 says why it is not the
	// engine's shard shape (a superblock and 3 working groups).
	matrixShape = shape{ssdCap: 2 << 20, primCap: 16 << 20, egs: 256 << 10, span: 256}
)

// Cell is one point of the crash matrix: flush policy × PC/NPC ×
// FIFO/Greedy victim. The zero Cell takes src's defaults.
type Cell struct {
	Flush  src.FlushPolicy
	Parity src.ParityMode
	Victim src.VictimPolicy
}

// Options seeds one chaos run.
type Options struct {
	// Seed selects the workload, the fault schedule and the probe's crash
	// schedules. Runs with equal Options are identical.
	Seed int64
	// Cell sets the cache's flush, parity and victim policies.
	Cell Cell
	// NoFaults runs a crash-matrix cell: no fault and no live crash is
	// injected (those steps flush instead), the array has matrixShape, and
	// the crash probe judges crashes at the run's snapshots.
	NoFaults bool
}

// Result counts what one run exercised. Two runs with equal Options produce
// equal Results, including the state Signature.
type Result struct {
	Writes      int
	Reads       int
	Flushes     int
	Crashes     int
	Rebuilds    int
	Scrubs      int
	Transients  int
	Unreadables int
	Corruptions int
	Checks      int // content verifications that passed

	// Signature folds the final cache state (per-page versions and the
	// virtual clock) into one value, so determinism checks can compare
	// entire final states cheaply.
	Signature uint64
}

// CrashStats counts what a crash-matrix cell's probe did: its crash
// trials, and the largest data-loss window it sampled — the exposure the
// cell's flush policy leaves open.
type CrashStats struct {
	Trials, MaxLossWindow int
}

type harness struct {
	opts  Options
	shape shape
	rng   *rand.Rand
	cache *src.Cache
	ssds  []*blockdev.FaultPlan
	prim  *blockdev.MemDevice
	at    vtime.Time
	probe *probe // a crash-matrix cell's; nil otherwise

	// latest mirrors the cache's per-page version counter: incremented on
	// every host page write, reset to the recovered version after a crash.
	// durable snapshots latest at each Flush that reached the SSDs: the
	// versions the cache has acknowledged as crash-safe.
	latest, durable map[int64]uint64

	// faults counts the device faults injected so far: transient and
	// latent errors, silent corruption and fail-stops.
	faults int

	res   Result
	crash CrashStats
}

// Run executes one seeded chaos schedule and returns its counters, or the
// first invariant violation as an error; a crash-matrix cell's probe
// reports its violation with the crash that caused it.
func Run(o Options) (Result, CrashStats, error) {
	h := &harness{
		opts:    o,
		shape:   faultShape,
		rng:     rand.New(rand.NewSource(o.Seed)),
		latest:  make(map[int64]uint64),
		durable: make(map[int64]uint64),
	}
	if o.NoFaults {
		h.shape = matrixShape
	}
	devs := make([]blockdev.Device, numSSD)
	h.ssds = make([]*blockdev.FaultPlan, numSSD)
	for i := range devs {
		p := blockdev.NewFaultPlan(blockdev.NewMemDevice(h.shape.ssdCap, 10*vtime.Microsecond))
		devs[i] = p
		h.ssds[i] = p
	}
	h.prim = blockdev.NewMemDevice(h.shape.primCap, vtime.Millisecond)
	cfg := src.Config{
		EraseGroupSize: h.shape.egs,
		SegmentColumn:  segCol,
		Victim:         o.Cell.Victim,
		Parity:         o.Cell.Parity,
		Flush:          o.Cell.Flush,
		TrackContent:   true,
		// The schedule injects faults far faster than any real device
		// degrades; a huge budget keeps escalation (unit-tested
		// separately) from fail-stopping columns mid-schedule.
		ErrorBudget: 1 << 30,
	}
	if o.NoFaults {
		h.probe = newProbe(cfg, h.shape.span, o.Seed)
	}
	cfg.SSDs, cfg.Primary = devs, h.prim
	cache, err := src.New(cfg)
	if err != nil {
		return h.res, h.crash, err
	}
	h.cache = cache
	for i := 0; i < steps; i++ {
		before := h.cache.Counters()
		err := h.step()
		if err == nil && h.probe != nil {
			err = h.observe(i, before)
		}
		if err != nil {
			if errors.Is(err, src.ErrNoFreeGroups) && h.faults == 0 {
				// gc always frees a group on a healthy array; only a fault
				// can abandon the segment write that would.
				err = fmt.Errorf("no fault injected, yet %w", err)
			}
			return h.res, h.crash, fmt.Errorf("seed %d op %d: %w", o.Seed, i, err)
		}
	}
	if err = h.verifyAll(); err != nil {
		return h.res, h.crash, fmt.Errorf("seed %d final verify: %w", o.Seed, err)
	}
	h.res.Signature = h.signature()
	if h.probe != nil {
		if h.crash.Trials, err = h.probe.trials(); err != nil {
			return h.res, h.crash, fmt.Errorf("seed %d %w", o.Seed, err)
		}
	}
	return h.res, h.crash, nil
}

// observe feeds the crash probe after op. It snapshots after an op that
// ended in a device barrier, and after a reclaim that did not: that trim,
// and the copies that must be durable before it, sit in the write logs
// until the next barrier, so a crash there is where a missing pre-trim
// flush shows. FlushNever issues no barriers, so its cells also snapshot
// at every loss sample. The loss window is sampled every 16 ops, not at
// snapshots, which sit right after barriers where every policy looks
// tight.
func (h *harness) observe(op int, before bench.Counters) error {
	now := h.cache.Counters()
	sample := op%16 == 15
	if now.SSDFlushes > before.SSDFlushes || now.GroupReclaims > before.GroupReclaims ||
		sample && h.opts.Cell.Flush == src.FlushNever {
		h.probe.snapshot(op, h.at, h.cache, h.latest, h.durable)
	}
	if !sample {
		return nil
	}
	w, err := h.probe.lossWindow(h.cache, h.latest)
	h.crash.MaxLossWindow = max(h.crash.MaxLossWindow, w)
	return err
}

func (h *harness) step() error {
	p := h.rng.Float64()
	if h.opts.NoFaults && p >= 0.84 && p < 0.925 {
		return h.doFlush()
	}
	switch {
	case p < 0.55:
		return h.doIO(blockdev.OpWrite)
	case p < 0.80:
		return h.doIO(blockdev.OpRead)
	case p < 0.84:
		return h.doFlush()
	case p < 0.87:
		return h.doInject()
	case p < 0.89:
		return h.doCrash()
	case p < 0.91:
		return h.doRebuild()
	case p < 0.925:
		return h.doScrub()
	default:
		return h.spotCheck()
	}
}

// doIO writes or reads 1–8 pages at a random page of the span.
func (h *harness) doIO(op blockdev.Op) error {
	lba := h.rng.Int63n(h.shape.span - 8)
	n := 1 + h.rng.Int63n(8)
	done, err := h.cache.Submit(h.at, blockdev.Request{Op: op, Off: lba * blockdev.PageSize, Len: n * blockdev.PageSize})
	if err != nil {
		return fmt.Errorf("%v [%d,%d): %w", op, lba, lba+n, err)
	}
	h.at = vtime.Max(h.at, done)
	if op == blockdev.OpRead {
		h.res.Reads++
		return nil
	}
	for p := lba; p < lba+n; p++ {
		h.latest[p]++
	}
	h.res.Writes++
	return nil
}

func (h *harness) doFlush() error {
	barriers := h.cache.Counters().SSDFlushes
	done, err := h.cache.Flush(h.at)
	if err != nil {
		return fmt.Errorf("flush: %w", err)
	}
	h.at = vtime.Max(h.at, done)
	// Everything written so far is now acknowledged as durable, if the
	// flush reached the SSDs: under FlushNever it drains the RAM buffers
	// into their volatile caches only.
	if h.cache.Counters().SSDFlushes > barriers {
		maps.Copy(h.durable, h.latest)
	}
	h.res.Flushes++
	return nil
}

// pickCached samples for a page currently on SSD and returns its location;
// ok is false when the sample budget finds none.
func (h *harness) pickCached() (lba int64, col int, page int64, ok bool) {
	for try := 0; try < 32; try++ {
		lba = h.rng.Int63n(h.shape.span)
		if col, page, ok = h.cache.Locate(lba); ok {
			return lba, col, page, true
		}
	}
	return 0, 0, 0, false
}

// latentBesides reports whether a member other than col has an outstanding
// latent error.
func (h *harness) latentBesides(col int) bool {
	for i, p := range h.ssds {
		if i != col && p.UnreadablePages() > 0 {
			return true
		}
	}
	return false
}

func (h *harness) doInject() error {
	switch h.rng.Intn(3) {
	case 0:
		// A burst of 1–3 transient errors, capped so the outstanding
		// stack stays within the cache's retry budget and the next I/O
		// to the device corrects them. A deeper stack would exhaust the
		// retries and (correctly) fail the request — an availability
		// outcome the unit tests cover deterministically; the chaos
		// invariants target durability.
		d := h.rng.Intn(numSSD)
		n := 1 + h.rng.Intn(3)
		if left := h.ssds[d].PendingTransient(); left+n > 3 {
			n = 3 - left
		}
		if n > 0 {
			h.ssds[d].InjectTransient(n)
			h.faults++
			h.res.Transients++
		}
		return nil
	case 1:
		// A latent sector error under a cached page. Left outstanding:
		// whichever path touches it next (read, GC, scrub, rebuild
		// gating) must repair or route around it. Marks are kept on one
		// member at a time: latent errors on two members can overlap a
		// reconstruction run, which single-parity RAID cannot survive
		// regardless of implementation.
		lba, col, page, ok := h.pickCached()
		if !ok || h.latentBesides(col) {
			return h.doIO(blockdev.OpRead)
		}
		h.ssds[col].InjectUnreadable(page)
		h.faults++
		h.res.Unreadables++
		if h.rng.Float64() < 0.5 {
			// Exercise the repair now via a direct read of the page.
			done, err := h.cache.Submit(h.at, blockdev.Request{
				Op: blockdev.OpRead, Off: lba * blockdev.PageSize, Len: blockdev.PageSize,
			})
			if err != nil {
				return fmt.Errorf("read over latent error at page %d: %w", lba, err)
			}
			h.at = vtime.Max(h.at, done)
		}
		return nil
	default:
		// Silent corruption, then an immediate checked read: the tag
		// mismatch must be detected and repaired in place. (Corruption
		// left outstanding is exercised by the scrub event instead, so a
		// later column failure never XORs corrupt survivor data.)
		lba, col, page, ok := h.pickCached()
		// Parity repair of the corrupt page reads every survivor; a latent
		// error there would turn a repairable corruption into a double
		// fault. A sector with a latent error cannot also hold silently
		// corrupt data.
		if !ok || h.latentBesides(col) || h.ssds[col].Unreadable(page) {
			return h.doIO(blockdev.OpRead)
		}
		if err := h.ssds[col].Content().Corrupt(page); err != nil {
			return err
		}
		h.faults++
		before := h.cache.State(nil).Repair.CorruptionsDetected
		_, done, err := h.cache.ReadCheck(h.at, lba)
		if err != nil {
			return fmt.Errorf("checked read of corrupted page %d: %w", lba, err)
		}
		h.at = vtime.Max(h.at, done)
		if h.cache.State(nil).Repair.CorruptionsDetected == before {
			return fmt.Errorf("page %d: planted corruption not detected", lba)
		}
		h.res.Corruptions++
		return nil
	}
}

func (h *harness) doCrash() error {
	// Primary storage is durable (the cache commits every write it makes
	// there); the SSDs lose their volatile write caches. Each SSD
	// independently persists either nothing or a FIFO prefix of its
	// volatile write log — the skew a set of independent drive caches
	// produces — and a prefix ending in a blob write may tear it mid-page,
	// leaving the partially-programmed summary recovery's CRC must reject.
	// All of these are barrier-legal states, so the durability checks
	// below apply unchanged.
	for _, p := range h.ssds {
		c := p.Content()
		n := c.WriteLogLen()
		if pick := h.rng.Float64(); pick < 0.5 || n == 0 {
			c.Crash()
			continue
		}
		cut := h.rng.Intn(n + 1)
		s := blockdev.PrefixSchedule(n, cut)
		if cut > 0 {
			if rec := c.WriteLog()[cut-1]; rec.Kind == blockdev.WriteBlobKind && rec.Len >= 2 {
				s = s.Tear(cut-1, 1+h.rng.Intn(rec.Len-1))
			}
		}
		if err := c.CrashPartial(s); err != nil {
			return fmt.Errorf("partial crash: %w", err)
		}
	}
	if _, err := h.cache.Recover(); err != nil {
		return fmt.Errorf("recover: %w", err)
	}
	h.res.Crashes++

	// No read-back: ReadCheck repairs state and advances the clock, which
	// would shift the rest of the schedule.
	if err := h.oracle().recovered(h.at, true, false); err != nil {
		return err
	}
	// The recovered state is exactly what was committed: it is the new
	// model baseline, and all of it is durable.
	h.latest = make(map[int64]uint64, len(h.latest))
	for lba := int64(0); lba < h.shape.span; lba++ {
		if rv, cached := h.cache.CachedVersion(lba); cached && rv > 0 {
			h.latest[lba] = rv
		}
	}
	h.durable = maps.Clone(h.latest)
	return nil
}

func (h *harness) doRebuild() error {
	// A survivor with an outstanding latent error cannot serve as a
	// reconstruction source; real arrays refuse to kick a second member
	// for the same reason. Scrub-style repair paths clear these over time.
	if h.latentBesides(-1) {
		return h.doIO(blockdev.OpRead)
	}
	col := h.rng.Intn(numSSD)
	h.ssds[col].Fail()
	h.faults++
	// Foreground traffic against the failed member: served degraded.
	for k := 0; k < 2; k++ {
		if err := h.doIO(blockdev.OpRead); err != nil {
			return fmt.Errorf("degraded before replace: %w", err)
		}
	}
	_ = h.rng.Int63() // part of every seed's pinned schedule: dropping it shifts the steps after it
	fresh := blockdev.NewFaultPlan(blockdev.NewMemDevice(h.shape.ssdCap, 10*vtime.Microsecond))
	done, err := h.cache.ReplaceSSD(h.at, col, fresh)
	if err != nil {
		return fmt.Errorf("replace ssd %d: %w", col, err)
	}
	h.ssds[col] = fresh
	h.at = vtime.Max(h.at, done)
	// Drive the rebuild interleaved with foreground traffic.
	for steps, pending := 0, true; pending; steps++ {
		if steps > 1<<16 {
			return fmt.Errorf("rebuild of ssd %d did not converge", col)
		}
		t, more, err := h.cache.RebuildStep(h.at)
		if err != nil {
			return fmt.Errorf("rebuild step: %w", err)
		}
		h.at = vtime.Max(h.at, t)
		pending = more
		if steps%4 == 3 {
			var ferr error
			if h.rng.Float64() < 0.5 {
				ferr = h.doIO(blockdev.OpWrite)
			} else {
				ferr = h.doIO(blockdev.OpRead)
			}
			if ferr != nil {
				return fmt.Errorf("foreground during rebuild: %w", ferr)
			}
		}
	}
	h.res.Rebuilds++
	return nil
}

func (h *harness) doScrub() error {
	planted := false
	before := h.cache.State(nil).Repair.CorruptionsDetected
	if h.rng.Float64() < 0.7 {
		if _, col, page, ok := h.pickCached(); ok && !h.ssds[col].Unreadable(page) {
			if err := h.ssds[col].Content().Corrupt(page); err != nil {
				return err
			}
			h.faults++
			planted = true
		}
	}
	done, err := h.cache.Scrub(h.at)
	if err != nil {
		return fmt.Errorf("scrub: %w", err)
	}
	h.at = vtime.Max(h.at, done)
	if planted && h.cache.State(nil).Repair.CorruptionsDetected == before {
		return fmt.Errorf("scrub missed a planted corruption")
	}
	h.res.Scrubs++
	return nil
}

// oracle judges the cache against the harness's model.
func (h *harness) oracle() oracle {
	return oracle{Cache: h.cache, Primary: h.prim.Content(), Latest: h.latest, Durable: h.durable, Span: h.shape.span}
}

// spotCheck checks a handful of random pages against the model, counting
// those it verified in the cache.
func (h *harness) spotCheck() error {
	o := h.oracle()
	for k := 0; k < 8; k++ {
		at, cached, err := o.live(h.at, h.rng.Int63n(h.shape.span))
		h.at = at
		if err != nil {
			return err
		}
		if cached {
			h.res.Checks++
		}
	}
	return nil
}

// verifyAll checks every written page at the end of the run.
func (h *harness) verifyAll() error {
	o := h.oracle()
	for lba := int64(0); lba < h.shape.span; lba++ {
		if h.latest[lba] == 0 {
			continue
		}
		var err error
		if h.at, _, err = o.live(h.at, lba); err != nil {
			return err
		}
		h.res.Checks++
	}
	return nil
}

// signature folds the final per-page versions and the virtual clock into one
// comparable value.
func (h *harness) signature() uint64 {
	var b []byte
	for lba := int64(0); lba < h.shape.span; lba++ {
		if v := h.latest[lba]; v > 0 {
			b = binary.LittleEndian.AppendUint64(b, uint64(lba))
			b = binary.LittleEndian.AppendUint64(b, v)
		}
	}
	f := fnv.New64a()
	f.Write(binary.LittleEndian.AppendUint64(b, uint64(h.at)))
	return f.Sum64()
}
