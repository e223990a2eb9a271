// Package engine is the sharded front-end over the SRC cache: it partitions
// a volume's LBA space across N independent src.Cache shards — the
// share-nothing unit the paper's design already provides (independent
// segments, append-only full-stripe writes, no read-modify-write) — and
// serves requests either deterministically in virtual time (Serial, for
// replay and as the test oracle) or from any number of goroutines at once
// (Do, for wall-clock serving).
//
// There is one submission path. The caller walks its request's stripe
// fragments and runs each on its own goroutine under that shard's mutex
// (shard.do) — the shape of the paper's Device-Mapper target, where the
// submitting context runs map() itself and the target's lock serializes
// it. No goroutine, queue or channel sits between a request and
// src.Cache.Submit.
//
//   - Geometry (shard set, stripe size) is fixed at New and read without
//     synchronization.
//   - A shard's src.Cache, payload store and virtual clock are guarded by
//     the shard's mutex and touched only inside shard.do. Shards share
//     nothing, so no call ever holds two locks.
//   - Flushes and state snapshots are ops like any other: they take each
//     shard's lock in turn and are therefore ordered with the data ops they
//     observe.
//   - Close sets the closed flag and then takes every shard lock once. do
//     reads the flag under the lock, so once Close returns no op runs.
package engine

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"srccache/internal/bench"
	"srccache/internal/blockdev"
	"srccache/internal/src"
	"srccache/internal/vtime"
)

// ErrClosed reports a request submitted after Close.
var ErrClosed = errors.New("engine: closed")

// Options configures an engine.
type Options struct {
	// Shards is the number of independent cache shards (default 1).
	Shards int
	// StripePages is the number of contiguous pages routed to one shard
	// before the mapping moves to the next (default 4096 pages = 16 MiB).
	// Large stripes keep most requests on a single shard; the stripe unit
	// is also the granularity a future rebalancer would migrate.
	StripePages int64
	// Payload allocates a per-shard byte store so the engine serves real
	// data (the netblockd serving path). Without it the engine tracks
	// cache accounting and timing only.
	Payload bool
}

func (o Options) withDefaults() Options {
	if o.Shards == 0 {
		o.Shards = 1
	}
	if o.StripePages == 0 {
		o.StripePages = 4096
	}
	return o
}

// Request is one engine-level I/O over the volume's byte address space.
// Data, when non-nil, must be Len bytes: the write source or read
// destination for payload-mode engines.
type Request struct {
	Op   blockdev.Op
	Off  int64
	Len  int64
	Data []byte
}

// opKind is the shard vocabulary: the three data ops plus the control ops
// that take the same lock.
type opKind uint8

const (
	kRead opKind = iota
	kWrite
	kTrim
	kFlush
	kState
)

// op is one shard-local operation: offsets are already remapped into the
// shard's compact address space.
type op struct {
	kind opKind
	off  int64
	n    int64
	data []byte
	// state receives the shard cache's snapshot for kState ops, reusing
	// its column buffer.
	state *src.State
}

// shard is one share-nothing cache partition. mu guards the cache's state,
// the payload bytes and the clock; do is the only code that reads or writes
// them (Serial.CacheDevices reads only the cache's fixed device list).
type shard struct {
	closed *atomic.Bool // the engine's flag, read under mu so Close fences

	mu    sync.Mutex
	cache *src.Cache
	data  []byte     // payload store; nil unless Options.Payload
	now   vtime.Time // shard-local virtual clock
}

// do runs one op on the caller's goroutine under the shard lock and
// returns the shard clock after it. at is the caller's virtual time (the
// Serial view's; zero from Do, whose devices keep their own virtual
// time). Holding the lock across cache.Submit is the point, not a
// cost: src.Cache is a single-threaded state machine and its device time
// is virtual, so nothing blocks while the lock is held and the lock is all
// the serialization a shard needs.
func (s *shard) do(at vtime.Time, o *op) (vtime.Time, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Load() {
		return at, ErrClosed
	}
	if s.now < at {
		s.now = at
	}
	done := s.now
	var err error
	// Payload copies are byte-granular; the cache models whole pages, so
	// read/write accounting rounds outward to page boundaries and trim
	// rounds inward (a partial page cannot be discarded).
	switch o.kind {
	case kFlush:
		done, err = s.cache.Flush(s.now)
	case kState:
		*o.state = s.cache.State(o.state.Columns)
	case kRead, kWrite:
		first := o.off / blockdev.PageSize * blockdev.PageSize
		last := (o.off + o.n + blockdev.PageSize - 1) / blockdev.PageSize * blockdev.PageSize
		opcode := blockdev.OpRead
		if o.kind == kWrite {
			opcode = blockdev.OpWrite
		}
		done, err = s.cache.Submit(s.now, blockdev.Request{Op: opcode, Off: first, Len: last - first})
		if err == nil && s.data != nil {
			if o.kind == kRead {
				copy(o.data, s.data[o.off:o.off+o.n])
			} else if o.data != nil {
				copy(s.data[o.off:o.off+o.n], o.data)
			}
		}
	case kTrim:
		first := (o.off + blockdev.PageSize - 1) / blockdev.PageSize * blockdev.PageSize
		last := (o.off + o.n) / blockdev.PageSize * blockdev.PageSize
		if last > first {
			done, err = s.cache.Submit(s.now, blockdev.Request{Op: blockdev.OpTrim, Off: first, Len: last - first})
		}
		if err == nil && s.data != nil {
			clear(s.data[o.off : o.off+o.n])
		}
	}
	if err != nil {
		return s.now, err
	}
	s.now = vtime.Max(s.now, done)
	return s.now, nil
}

// Engine is the sharded front-end. Its geometry is immutable after New;
// all mutable state lives in the shards, each behind its own lock.
type Engine struct {
	shards      []*shard
	stripeBytes int64
	shardBytes  int64

	closed atomic.Bool
}

// New builds an engine whose shard caches come from build(i). Every
// shard's primary capacity must be equal and a multiple of the stripe
// size; the engine volume is their concatenation under stripe routing.
func New(opt Options, build func(shard int) (*src.Cache, error)) (*Engine, error) {
	opt = opt.withDefaults()
	if opt.Shards < 1 {
		return nil, fmt.Errorf("engine: shard count %d must be positive", opt.Shards)
	}
	if opt.StripePages < 1 {
		return nil, fmt.Errorf("engine: stripe %d pages must be positive", opt.StripePages)
	}
	e := &Engine{
		shards:      make([]*shard, opt.Shards),
		stripeBytes: opt.StripePages * blockdev.PageSize,
	}
	for i := range e.shards {
		c, err := build(i)
		if err != nil {
			return nil, fmt.Errorf("engine: building shard %d: %w", i, err)
		}
		capBytes := c.Primary().Capacity()
		if i == 0 {
			e.shardBytes = capBytes
		} else if capBytes != e.shardBytes {
			return nil, fmt.Errorf("engine: shard %d capacity %d != shard 0 capacity %d", i, capBytes, e.shardBytes)
		}
		s := &shard{closed: &e.closed, cache: c}
		if opt.Payload {
			s.data = make([]byte, capBytes)
		}
		e.shards[i] = s
	}
	if e.shardBytes%e.stripeBytes != 0 {
		return nil, fmt.Errorf("engine: shard capacity %d not a multiple of stripe %d bytes", e.shardBytes, e.stripeBytes)
	}
	return e, nil
}

// Size reports the volume size in bytes (the concatenated shard
// primaries).
func (e *Engine) Size() int64 { return e.shardBytes * int64(len(e.shards)) }

// Start does nothing and reports ErrClosed after Close, nil otherwise: Do,
// Flush, States and Counters are callable from any goroutine from New on.
// It stays only because the served-path benchmark (benchmark/stack.go)
// still calls it.
func (e *Engine) Start() error {
	if e.closed.Load() {
		return ErrClosed
	}
	return nil
}

// Close fences the engine: every call that has not yet taken a shard lock
// fails with ErrClosed, and the ops that hold one finish before Close
// returns. Safe to call more than once.
func (e *Engine) Close() error {
	e.closed.Store(true)
	for _, s := range e.shards {
		s.mu.Lock() // waits out the op that holds it; the next one sees closed
		s.mu.Unlock()
	}
	return nil
}

// route maps a volume byte offset to (shard index, shard-local offset).
// Stripes rotate round-robin across shards; each shard's stripes pack
// contiguously into its compact local space.
func (e *Engine) route(off int64) (int, int64) {
	stripe := off / e.stripeBytes
	sh := int(stripe % int64(len(e.shards)))
	local := (stripe/int64(len(e.shards)))*e.stripeBytes + off%e.stripeBytes
	return sh, local
}

// validate bounds-checks one request against the volume.
func (e *Engine) validate(req Request) error {
	size := e.Size()
	switch {
	case req.Op != blockdev.OpRead && req.Op != blockdev.OpWrite && req.Op != blockdev.OpTrim:
		return fmt.Errorf("engine: bad op %v", req.Op)
	case req.Len <= 0:
		return fmt.Errorf("engine: non-positive length %d", req.Len)
	case req.Off < 0 || req.Off > size-req.Len:
		return fmt.Errorf("engine: [%d,%d) outside volume %d", req.Off, req.Off+req.Len, size)
	case req.Data != nil && int64(len(req.Data)) != req.Len:
		return fmt.Errorf("engine: payload %d bytes != length %d", len(req.Data), req.Len)
	}
	return nil
}

// kindOf maps a block op to the shard vocabulary.
func kindOf(o blockdev.Op) opKind {
	switch o {
	case blockdev.OpRead:
		return kRead
	case blockdev.OpWrite:
		return kWrite
	default:
		return kTrim
	}
}

// submit validates req and runs its fragments in address order, one shard
// lock at a time, stopping at the first error. A request is fragmented
// only where it crosses a stripe boundary, so with the default 16 MiB
// stripe almost every request is a single fragment. It returns the latest
// clock of the shards it touched.
func (e *Engine) submit(at vtime.Time, req Request) (vtime.Time, error) {
	if err := e.validate(req); err != nil {
		return at, err
	}
	kind := kindOf(req.Op)
	off, n, data := req.Off, req.Len, req.Data
	done := at
	for n > 0 {
		sh, local := e.route(off)
		frag := min(e.stripeBytes-off%e.stripeBytes, n)
		o := op{kind: kind, off: local, n: frag}
		if data != nil {
			o.data = data[:frag:frag]
			data = data[frag:]
		}
		now, err := e.shards[sh].do(at, &o)
		if err != nil {
			return done, err
		}
		done = vtime.Max(done, now)
		off += frag
		n -= frag
	}
	return done, nil
}

// flush drains every shard's dirty buffers and flushes its SSDs, ordered
// on each shard after the ops that already held its lock.
func (e *Engine) flush(at vtime.Time) (vtime.Time, error) {
	done := at
	for _, s := range e.shards {
		o := op{kind: kFlush}
		now, err := s.do(at, &o)
		if err != nil {
			return done, err
		}
		done = vtime.Max(done, now)
	}
	return done, nil
}

// counters sums the shard caches' counters. Each shard's snapshot is taken
// under its lock, so it reflects an op boundary; summing across shards is
// safe because shards share nothing.
func (e *Engine) counters() (bench.Counters, error) {
	states, err := e.States(nil)
	if err != nil {
		return bench.Counters{}, err
	}
	var sum bench.Counters
	for _, st := range states {
		sum.Add(st.Counters)
	}
	return sum, nil
}

// States snapshots every shard's cache, in shard order, each under its
// shard's lock. It reuses dst's array and each element's column buffer.
func (e *Engine) States(dst []src.State) ([]src.State, error) {
	dst = slices.Grow(dst[:0], len(e.shards))[:len(e.shards)]
	for i, s := range e.shards {
		o := op{kind: kState, state: &dst[i]}
		if _, err := s.do(0, &o); err != nil {
			return nil, err
		}
	}
	return dst, nil
}

// Do executes one request on the caller's goroutine. It is the function
// every served request crosses, and it allocates nothing
// (TestDoAllocatesNothing).
func (e *Engine) Do(req Request) error {
	_, err := e.submit(0, req)
	return err
}

// Flush drains and flushes every shard.
func (e *Engine) Flush() error {
	_, err := e.flush(0)
	return err
}

// Counters sums the shard caches' counters.
func (e *Engine) Counters() (bench.Counters, error) {
	return e.counters()
}

// ReadAt implements the netblock.Backend read. Requires Payload mode.
func (e *Engine) ReadAt(p []byte, off int64) error {
	return e.Do(Request{Op: blockdev.OpRead, Off: off, Len: int64(len(p)), Data: p})
}

// WriteAt implements the netblock.Backend write.
func (e *Engine) WriteAt(p []byte, off int64) error {
	return e.Do(Request{Op: blockdev.OpWrite, Off: off, Len: int64(len(p)), Data: p})
}

// Trim implements the netblock.Backend trim.
func (e *Engine) Trim(off, n int64) error {
	return e.Do(Request{Op: blockdev.OpTrim, Off: off, Len: n})
}
