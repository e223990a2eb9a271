// Package fleet is the real-TCP counterpart of the cluster simulation: the
// same consistent-hash ring and chained replication, carried over live
// netblock servers instead of virtual-time pipes. A ChainBackend wraps a
// node's storage so every write it serves is forwarded down the replica
// chain before the node replies, and a Fleet client routes volume requests
// onto the ring with owner-order failover, direct-write repair, and
// range streaming for membership changes.
//
// The package is deliberately wallclock: it exists to prove the simulated
// protocol runs over the real transport. The invariants it relies on —
// clean-head writes, owner-order chains, "no clean source is not never
// written" — are established and churn-tested by package cluster; fleet
// keeps the mapping one-to-one (Ring.Owners is the chain order in both).
package fleet

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"srccache/internal/cluster"
	"srccache/internal/netblock"
	"srccache/internal/vtime"
)

// repairChunk bounds one repair/stream transfer, comfortably under the
// protocol's MaxPayload so a large RangeBytes still streams.
const repairChunk = 256 << 10

// ErrNoSourceReplica reports that RepairRange found no other owner of the
// range answering to copy from. It is not "never written": the repair is
// retried once a copy recovers.
var ErrNoSourceReplica = errors.New("no source replica")

// ChainBackend wraps a node's local storage with chain forwarding: a write
// (or trim) is applied locally and then pushed to the next owner after this
// node's own position in the range's replica chain, which forwards onward in
// turn — so a client write to the chain head replicates through the whole
// chain before the head's reply. The node derives its chain position from
// the ring and its own ID, so the wire protocol needs no chain field and any
// plain netblock client can address any replica.
//
// Forwarding failures are counted, not fatal: a dead successor must not fail
// the write (the head's copy is the acknowledged one), and anti-entropy
// repair heals the gap — exactly the simulation's partial-write path.
type ChainBackend struct {
	local netblock.Backend
	self  string
	opts  netblock.ClientOptions

	mu    sync.Mutex
	ring  *cluster.Ring
	conns map[string]*netblock.Client

	forwards    atomic.Int64
	forwardErrs atomic.Int64
}

// NewChainBackend wraps local storage for ring member self. The local
// volume must span the ring's full logical volume: every node addresses
// global offsets, so replicas hold their ranges at identical offsets and a
// failover needs no translation. self may be absent from the ring (a spare
// waiting to join serves locally without forwarding).
func NewChainBackend(local netblock.Backend, self string, ring *cluster.Ring, opts netblock.ClientOptions) (*ChainBackend, error) {
	if local == nil {
		return nil, fmt.Errorf("fleet: nil backend")
	}
	if self == "" {
		return nil, fmt.Errorf("fleet: empty node ID")
	}
	if ring == nil {
		return nil, fmt.Errorf("fleet: nil ring")
	}
	if local.Size() != ring.Size() {
		return nil, fmt.Errorf("fleet: backend size %d != ring volume %d", local.Size(), ring.Size())
	}
	return &ChainBackend{
		local: local,
		self:  self,
		opts:  opts,
		ring:  ring,
		conns: make(map[string]*netblock.Client),
	}, nil
}

// Ring returns the placement the backend currently forwards by.
func (b *ChainBackend) Ring() *cluster.Ring {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.ring
}

// SetRing installs a new placement (a committed membership change). The
// volume geometry must not change; only ownership may move.
func (b *ChainBackend) SetRing(ring *cluster.Ring) error {
	if ring == nil {
		return fmt.Errorf("fleet: nil ring")
	}
	if ring.Size() != b.local.Size() {
		return fmt.Errorf("fleet: ring volume %d != backend size %d", ring.Size(), b.local.Size())
	}
	b.mu.Lock()
	b.ring = ring
	b.mu.Unlock()
	return nil
}

// Forwards reports how many chain forwards succeeded and how many pieces
// found no reachable successor.
func (b *ChainBackend) Forwards() (ok, failed int64) {
	return b.forwards.Load(), b.forwardErrs.Load()
}

// ReadAt serves locally — reads never traverse the chain — but only when
// this node may: a ring member that does not own the requested extent
// refuses with the stale-epoch marker, so a client routed by an outdated
// table refetches instead of consuming bytes the current chain no longer
// maintains here. Spares (nodes absent from the ring) serve everything:
// rebalance bootstrap and repair traffic address them directly before any
// committed ring includes them.
func (b *ChainBackend) ReadAt(p []byte, off int64) error {
	if err := b.refuseStale("read", off, int64(len(p))); err != nil {
		return err
	}
	return b.local.ReadAt(p, off)
}

// refuseStale rejects an operation addressed to a ring member that does
// not own the extent — the server side of the stale-epoch protocol, the
// real-transport twin of the simulation's Node.checkEpoch. Only members
// refuse: a spare (absent from the ring) must keep serving rebalance
// bootstrap and repair traffic addressed to it directly.
func (b *ChainBackend) refuseStale(verb string, off, n int64) error {
	ring := b.Ring()
	if _, member := ring.Member(b.self); member && !b.ownsExtent(ring, off, n) {
		return fmt.Errorf("fleet: %s: %s [%d,%d) not owned by %s",
			netblock.StaleEpochText, verb, off, off+n, b.self)
	}
	return nil
}

// ownsExtent reports whether self is in the replica chain of every range
// the extent touches.
func (b *ChainBackend) ownsExtent(ring *cluster.Ring, off, n int64) bool {
	end := off + n
	for off < end {
		rng := ring.RangeOf(off)
		if !ring.OwnedBy(rng, b.self) {
			return false
		}
		off = (int64(rng) + 1) * ring.RangeBytes
	}
	return true
}

// Size reports the local volume size.
func (b *ChainBackend) Size() int64 { return b.local.Size() }

// Flush is a local barrier. The Fleet client fans its Flush out to every
// member, so chain-forwarding the barrier would only duplicate it.
func (b *ChainBackend) Flush() error { return b.local.Flush() }

// WriteAt applies locally, then forwards each per-range piece down the
// chain. The local apply is the acknowledged copy; forward failures are
// recorded for repair, never surfaced to the writer. A member that no
// longer owns the extent refuses instead of applying: forwardPiece only
// pushes from a node's own chain position, so a stale-headed write would
// strand on this replica while the current chain never sees it — the
// simulation refuses the same way (handleWrite's epoch check).
func (b *ChainBackend) WriteAt(p []byte, off int64) error {
	if err := b.refuseStale("write", off, int64(len(p))); err != nil {
		return err
	}
	if err := b.local.WriteAt(p, off); err != nil {
		return err
	}
	base := off
	b.forward(off, int64(len(p)), func(c *netblock.Client, pieceOff, n int64) error {
		// A successor's stale-epoch refusal (epoch skew mid-ring-push) is a
		// forward failure like any other: counted for repair, never
		// refetched here — servers converge by the control plane's pushes,
		// not by chasing each other's tables.
		_, err := c.WriteAt(p[pieceOff-base:pieceOff-base+n], pieceOff)
		return err
	})
	return nil
}

// Trim applies locally and forwards, mirroring WriteAt: a trim is a
// mutation, and replicas that miss it would answer reads with deleted
// data. Stale routes are refused for the same reason writes are.
func (b *ChainBackend) Trim(off, n int64) error {
	if err := b.refuseStale("trim", off, n); err != nil {
		return err
	}
	if err := b.local.Trim(off, n); err != nil {
		return err
	}
	b.forward(off, n, func(c *netblock.Client, off, n int64) error {
		// Same sanctioned drop as WriteAt's forward: repair reconciles
		// replicas that missed the trim.
		return c.Trim(off, n)
	})
	return nil
}

// forward splits [off, off+n) on range boundaries and pushes each piece to
// the next owner after this node's own chain position. send performs the
// piece-shaped operation on a successor's connection.
func (b *ChainBackend) forward(off, n int64, send func(c *netblock.Client, off, n int64) error) {
	ring := b.Ring()
	end := off + n
	for off < end {
		rng := ring.RangeOf(off)
		stop := (int64(rng) + 1) * ring.RangeBytes
		if stop > end {
			stop = end
		}
		b.forwardPiece(ring, rng, off, stop-off, send)
		off = stop
	}
}

// forwardPiece sends one in-range piece to the first reachable successor in
// the chain. Skipping a dead successor and trying the next mirrors the
// simulation's handleWrite: the chain routes around fail-stop members and
// the skipped copy is repair's problem.
func (b *ChainBackend) forwardPiece(ring *cluster.Ring, rng int, off, n int64, send func(c *netblock.Client, off, n int64) error) {
	owners := ring.Owners(rng)
	pos := -1
	for i, id := range owners {
		if id == b.self {
			pos = i
			break
		}
	}
	if pos < 0 || pos+1 >= len(owners) {
		// Not an owner (a direct write outside our chain — repair traffic,
		// or a spare warming up) or the tail: nothing to forward.
		return
	}
	for _, id := range owners[pos+1:] {
		c, err := b.conn(ring, id)
		if err != nil {
			continue
		}
		if err := send(c, off, n); err != nil {
			b.drop(id, c)
			continue
		}
		b.forwards.Add(1)
		return
	}
	b.forwardErrs.Add(1)
}

// conn returns the cached connection to a peer, dialing on first use.
func (b *ChainBackend) conn(ring *cluster.Ring, id string) (*netblock.Client, error) {
	b.mu.Lock()
	c := b.conns[id]
	b.mu.Unlock()
	if c != nil {
		return c, nil
	}
	m, ok := ring.Member(id)
	if !ok {
		return nil, fmt.Errorf("fleet: no address for member %q", id)
	}
	c, err := netblock.DialOptions(m.Addr, b.opts)
	if err != nil {
		return nil, err
	}
	b.mu.Lock()
	if prev := b.conns[id]; prev != nil {
		b.mu.Unlock()
		c.Close()
		return prev, nil
	}
	b.conns[id] = c
	b.mu.Unlock()
	return c, nil
}

// drop discards a connection after a transport failure so the next forward
// redials — a restarted peer gets a fresh connection instead of the stale
// one failing forever.
func (b *ChainBackend) drop(id string, c *netblock.Client) {
	b.mu.Lock()
	if b.conns[id] == c {
		delete(b.conns, id)
	}
	b.mu.Unlock()
	c.Close()
}

// Close closes the forwarding connections. The local backend belongs to the
// caller.
func (b *ChainBackend) Close() error {
	b.mu.Lock()
	conns := b.conns
	b.conns = make(map[string]*netblock.Client)
	b.mu.Unlock()
	var err error
	for _, c := range conns {
		if cerr := c.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// Stats counts what the Fleet client did. Health carries the failure
// detector's current per-member classification (nil when no detector is
// installed via SetDetector).
type Stats struct {
	Reads, Writes int64
	Failovers     int64 // attempts that moved past a dead or erroring owner
	Repairs       int64 // ranges streamed by RepairRange or Rebalance
	Refetches     int64 // routing-table refetches after stale-epoch refusals
	Health        map[string]cluster.Health
}

// Fleet is the host-side initiator over real netblock servers: it splits
// volume requests on range boundaries, addresses each piece's replica chain
// head-first, and fails over across owners when one does not answer. When a
// member refuses a read with netblock.ErrStaleEpoch, the fleet refetches
// its routing table through the SetRefetch source and retries against the
// current owners (TestFleetStaleEpochRefetch).
type Fleet struct {
	opts netblock.ClientOptions

	mu      sync.Mutex
	ring    *cluster.Ring
	conns   map[string]*netblock.Client
	refetch func() *cluster.Ring
	det     *cluster.Detector

	reads, writes, failovers, repairs, refetches atomic.Int64
}

// New builds a fleet client over a ring whose members carry dialable
// addresses.
func New(ring *cluster.Ring, opts netblock.ClientOptions) (*Fleet, error) {
	if ring == nil {
		return nil, fmt.Errorf("fleet: nil ring")
	}
	return &Fleet{opts: opts, ring: ring, conns: make(map[string]*netblock.Client)}, nil
}

// Ring returns the placement the client currently routes by.
func (f *Fleet) Ring() *cluster.Ring {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ring
}

// SetRing installs a new placement after a committed membership change.
func (f *Fleet) SetRing(ring *cluster.Ring) error {
	if ring == nil {
		return fmt.Errorf("fleet: nil ring")
	}
	f.mu.Lock()
	if ring.Size() != f.ring.Size() {
		f.mu.Unlock()
		return fmt.Errorf("fleet: ring volume %d != current %d", ring.Size(), f.ring.Size())
	}
	f.ring = ring
	f.mu.Unlock()
	return nil
}

// Stats returns the client's counters, including per-member health when a
// detector is installed.
func (f *Fleet) Stats() Stats {
	s := Stats{
		Reads:     f.reads.Load(),
		Writes:    f.writes.Load(),
		Failovers: f.failovers.Load(),
		Repairs:   f.repairs.Load(),
		Refetches: f.refetches.Load(),
	}
	f.mu.Lock()
	det, ring := f.det, f.ring
	f.mu.Unlock()
	if det != nil {
		s.Health = make(map[string]cluster.Health)
		for _, m := range ring.Members() {
			s.Health[m.ID] = det.State(m.ID)
		}
	}
	return s
}

// SetDetector installs a failure detector scored by this client's
// traffic: Ping feeds round-trip latency (the fail-slow EWMA signal), and
// the data path feeds success/failure observations (data ops carry no
// useful latency — their duration scales with payload, not health). The
// same detector instance may be shared with a supervisor, so every call
// into it serializes on the fleet's lock.
func (f *Fleet) SetDetector(d *cluster.Detector) {
	f.mu.Lock()
	f.det = d
	f.mu.Unlock()
}

// observe feeds the detector one interaction, if one is installed.
// lat <= 0 means "no useful latency signal": failures count toward the
// fail-stop run either way, successes reset it without touching the EWMA.
func (f *Fleet) observe(id string, lat time.Duration, failed bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.det == nil {
		return
	}
	switch {
	case failed:
		f.det.Observe(id, vtime.FromStd(lat), true)
	case lat > 0:
		f.det.Observe(id, vtime.FromStd(lat), false)
	default:
		f.det.ObserveOK(id)
	}
}

// SetRefetch installs the routing-table source consulted after a
// stale-epoch refusal: when a member answers a read with
// netblock.ErrStaleEpoch, tryOwners calls fn and retries under the ring it
// returns. In production fn asks the membership coordinator for the
// committed placement; tests hand back the post-churn ring directly. With
// no source installed a refusal stays fatal.
func (f *Fleet) SetRefetch(fn func() *cluster.Ring) {
	f.mu.Lock()
	f.refetch = fn
	f.mu.Unlock()
}

// refetchRing pulls a fresh placement from the SetRefetch source and
// installs it, reporting whether the routing actually changed. The
// stale-epoch retry loop stops when it did not, so a source that cannot
// advance the ring cannot spin the client.
func (f *Fleet) refetchRing() bool {
	f.mu.Lock()
	fn := f.refetch
	old := f.ring
	f.mu.Unlock()
	if fn == nil {
		return false
	}
	next := fn()
	if next == nil || next == old || next.Size() != old.Size() {
		return false
	}
	f.mu.Lock()
	if f.ring == old {
		f.ring = next
	}
	f.mu.Unlock()
	return true
}

// conn returns the cached connection to a member, dialing on first use.
func (f *Fleet) conn(ring *cluster.Ring, id string) (*netblock.Client, error) {
	f.mu.Lock()
	c := f.conns[id]
	f.mu.Unlock()
	if c != nil {
		return c, nil
	}
	m, ok := ring.Member(id)
	if !ok {
		return nil, fmt.Errorf("fleet: no address for member %q", id)
	}
	c, err := netblock.DialOptions(m.Addr, f.opts)
	if err != nil {
		return nil, err
	}
	f.mu.Lock()
	if prev := f.conns[id]; prev != nil {
		f.mu.Unlock()
		c.Close()
		return prev, nil
	}
	f.conns[id] = c
	f.mu.Unlock()
	return c, nil
}

// drop discards a member's connection after a transport failure so the next
// attempt redials.
func (f *Fleet) drop(id string, c *netblock.Client) {
	f.mu.Lock()
	if f.conns[id] == c {
		delete(f.conns, id)
	}
	f.mu.Unlock()
	c.Close()
}

// Close closes every member connection.
func (f *Fleet) Close() error {
	f.mu.Lock()
	conns := f.conns
	f.conns = make(map[string]*netblock.Client)
	f.mu.Unlock()
	var err error
	for _, c := range conns {
		if cerr := c.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// WriteAt stores p at volume offset off. Each per-range piece goes to the
// first owner that accepts it; that head's ChainBackend replicates down the
// chain before its reply, so a successful return means the piece is on every
// reachable replica.
func (f *Fleet) WriteAt(p []byte, off int64) error {
	return f.split(p, off, func(rng int, piece []byte, off int64) error {
		return f.tryOwners(rng, func(c *netblock.Client) error {
			_, err := c.WriteAt(piece, off)
			return err
		})
	}, &f.writes)
}

// ReadAt fills p from volume offset off, failing each piece over across its
// replica chain until one owner answers.
func (f *Fleet) ReadAt(p []byte, off int64) error {
	return f.split(p, off, func(rng int, piece []byte, off int64) error {
		return f.tryOwners(rng, func(c *netblock.Client) error {
			_, err := c.ReadAt(piece, off)
			return err
		})
	}, &f.reads)
}

// Flush barriers every member. Chain heads do not forward barriers, so the
// client issues one per node; a member that does not answer fails the call
// (a barrier that silently skipped a replica is not a barrier).
func (f *Fleet) Flush() error {
	ring := f.Ring()
	for _, m := range ring.Members() {
		c, err := f.conn(ring, m.ID)
		if err != nil {
			return fmt.Errorf("fleet: flush %s: %w", m.ID, err)
		}
		if err := c.Flush(); err != nil {
			f.drop(m.ID, c)
			return fmt.Errorf("fleet: flush %s: %w", m.ID, err)
		}
	}
	return nil
}

// split carves [off, off+len(p)) into per-range pieces.
func (f *Fleet) split(p []byte, off int64, op func(rng int, piece []byte, off int64) error, counter *atomic.Int64) error {
	ring := f.Ring()
	if off < 0 || off+int64(len(p)) > ring.Size() {
		return fmt.Errorf("fleet: extent [%d,%d) outside volume of %d bytes", off, off+int64(len(p)), ring.Size())
	}
	for len(p) > 0 {
		rng := ring.RangeOf(off)
		stop := (int64(rng) + 1) * ring.RangeBytes
		n := stop - off
		if n > int64(len(p)) {
			n = int64(len(p))
		}
		if err := op(rng, p[:n], off); err != nil {
			return err
		}
		counter.Add(1)
		off += n
		p = p[n:]
	}
	return nil
}

// maxStaleRetries bounds how many routing-table refetches one operation
// may consume after stale-epoch refusals. Each retry additionally requires
// the refetched ring to differ from the one just tried, so the bound only
// bites when the placement keeps moving under the operation.
const maxStaleRetries = 3

// tryOwners runs op against range rng's owners in chain order until one
// serves, dropping connections that fail at the transport so later attempts
// redial. Remote errors (the server answered and refused) also fail over:
// a replica mid-restart may refuse briefly while its sibling serves. A
// stale-epoch refusal (netblock.ErrStaleEpoch) is different — every member
// of an outdated chain refuses the same way — so instead of burning the
// failover pass the client refetches its routing table through the
// SetRefetch source and retries against the current owners, bounded by
// maxStaleRetries and by the requirement that each refetch actually
// advance the ring.
func (f *Fleet) tryOwners(rng int, op func(c *netblock.Client) error) error {
	var last error
	for attempt := 0; attempt <= maxStaleRetries; attempt++ {
		ring := f.Ring()
		stale := false
		for _, id := range ring.Owners(rng) {
			c, err := f.conn(ring, id)
			if err != nil {
				last = err
				f.failovers.Add(1)
				f.observe(id, 0, true)
				continue
			}
			if err := op(c); err != nil {
				if errors.Is(err, netblock.ErrStaleEpoch) {
					// The refusal is an answer, not a dead peer: keep the
					// connection, stop addressing this chain, and refetch —
					// the rest of the stale chain would refuse identically.
					// An answer also proves liveness for the detector.
					f.observe(id, 0, false)
					last = err
					stale = true
					break
				}
				f.drop(id, c)
				last = err
				f.failovers.Add(1)
				// A remote refusal proves the member answered; only a
				// transport failure counts toward its fail-stop run.
				f.observe(id, 0, !errors.Is(err, netblock.ErrRemote))
				continue
			}
			f.observe(id, 0, false)
			return nil
		}
		if stale && f.refetchRing() {
			f.refetches.Add(1)
			continue
		}
		break
	}
	return fmt.Errorf("fleet: range %d: no replica served: %w", rng, last)
}

// RepairRange streams range rng onto node id from the first other owner
// that answers, then reads it back and verifies byte identity — the real
// path's anti-entropy step after a wipe or missed write. The write goes
// straight to the target (which forwards nothing useful: repair traffic is
// addressed below its chain position or outside the chain entirely). Repair
// reads address one specific replica, so a stale-epoch refusal propagates
// to the caller instead of being refetched away: it means the operator's
// ring no longer matches the cluster, and repairing under it would copy
// the wrong placement.
func (f *Fleet) RepairRange(id string, rng int) error {
	ring := f.Ring()
	var src *netblock.Client
	var srcID string
	for _, o := range ring.Owners(rng) {
		if o == id {
			continue
		}
		c, err := f.conn(ring, o)
		if err != nil {
			continue
		}
		src, srcID = c, o
		break
	}
	if src == nil {
		return fmt.Errorf("fleet: repair range %d on %s: %w", rng, id, ErrNoSourceReplica)
	}
	tgt, err := f.conn(ring, id)
	if err != nil {
		return fmt.Errorf("fleet: repair range %d on %s: %w", rng, id, err)
	}
	base := int64(rng) * ring.RangeBytes
	if err := f.stream(src, tgt, base, ring.RangeBytes); err != nil {
		return fmt.Errorf("fleet: repair range %d (%s -> %s): %w", rng, srcID, id, err)
	}
	if err := f.verify(src, tgt, base, ring.RangeBytes); err != nil {
		return fmt.Errorf("fleet: repair range %d (%s -> %s): %w", rng, srcID, id, err)
	}
	f.repairs.Add(1)
	return nil
}

// Rebalance streams every range the new placement adds an owner for, from
// an old owner to the new one — the graceful part of join/leave. The caller
// swaps rings (client and every node) only after Rebalance returns, so old
// owners keep serving throughout; writes landing during the stream reach
// the target through the old chain's forwards or a later RepairRange. Like
// RepairRange, a stale-epoch refusal surfaces: it proves the old ring the
// caller passed is not the one the members route by.
func (f *Fleet) Rebalance(old, next *cluster.Ring) error {
	if old.Size() != next.Size() {
		return fmt.Errorf("fleet: rebalance changes volume size %d -> %d", old.Size(), next.Size())
	}
	for _, mv := range cluster.Moves(old, next) {
		if err := f.StreamMove(old, next, mv); err != nil {
			return err
		}
	}
	return nil
}

// StreamMove streams one pending move — range mv.Range from a serving old
// owner to mv.Target, which may be a fresh member only the next ring can
// address. It is the single step a supervisor journals around: after each
// StreamMove the pending set shrinks by one, so a supervisor crash between
// steps re-streams at most the move in flight (idempotent — same bytes at
// the same offsets). Stale-epoch refusals surface for the same reason
// Rebalance's do.
func (f *Fleet) StreamMove(old, next *cluster.Ring, mv cluster.Move) error {
	var src *netblock.Client
	var srcID string
	for _, o := range old.Owners(mv.Range) {
		if o == mv.Target {
			continue
		}
		c, err := f.conn(old, o)
		if err != nil {
			continue
		}
		src, srcID = c, o
		break
	}
	if src == nil {
		return fmt.Errorf("fleet: rebalance range %d: no source among old owners", mv.Range)
	}
	tgt, err := f.conn(next, mv.Target)
	if err != nil {
		return fmt.Errorf("fleet: rebalance range %d to %s: %w", mv.Range, mv.Target, err)
	}
	base := int64(mv.Range) * old.RangeBytes
	if err := f.stream(src, tgt, base, old.RangeBytes); err != nil {
		return fmt.Errorf("fleet: rebalance range %d (%s -> %s): %w", mv.Range, srcID, mv.Target, err)
	}
	f.repairs.Add(1)
	return nil
}

// stream copies [base, base+n) from src to tgt in bounded chunks. Reads
// address the chosen source replica directly, so a stale-epoch refusal
// surfaces to the repair caller rather than triggering a refetch.
func (f *Fleet) stream(src, tgt *netblock.Client, base, n int64) error {
	buf := make([]byte, repairChunk)
	for done := int64(0); done < n; {
		chunk := n - done
		if chunk > repairChunk {
			chunk = repairChunk
		}
		if _, err := src.ReadAt(buf[:chunk], base+done); err != nil {
			return fmt.Errorf("stream read: %w", err)
		}
		if _, err := tgt.WriteAt(buf[:chunk], base+done); err != nil {
			return fmt.Errorf("stream write: %w", err)
		}
		done += chunk
	}
	return nil
}

// verify reads [base, base+n) from both sides and compares — repair's
// byte-identity check. Surfaces the stale-epoch contract for the same
// reason stream does: its reads pin specific replicas.
func (f *Fleet) verify(src, tgt *netblock.Client, base, n int64) error {
	want := make([]byte, repairChunk)
	got := make([]byte, repairChunk)
	for done := int64(0); done < n; {
		chunk := n - done
		if chunk > repairChunk {
			chunk = repairChunk
		}
		if _, err := src.ReadAt(want[:chunk], base+done); err != nil {
			return fmt.Errorf("verify read source: %w", err)
		}
		if _, err := tgt.ReadAt(got[:chunk], base+done); err != nil {
			return fmt.Errorf("verify read target: %w", err)
		}
		if !bytes.Equal(want[:chunk], got[:chunk]) {
			return fmt.Errorf("verify mismatch at offset %d", base+done)
		}
		done += chunk
	}
	return nil
}

// Ping probes one member, returning the server's health handshake (size,
// advertised ring epoch, drain state). The round-trip latency feeds the
// installed detector — pings are the fixed-size probe whose duration
// reflects node health rather than payload size, so they are the fail-slow
// EWMA's only input on the real path.
func (f *Fleet) Ping(id string) (netblock.PingInfo, error) {
	ring := f.Ring()
	start := time.Now()
	c, err := f.conn(ring, id)
	if err != nil {
		f.observe(id, time.Since(start), true)
		return netblock.PingInfo{}, err
	}
	info, err := c.Ping()
	lat := time.Since(start)
	if err != nil {
		f.drop(id, c)
		f.observe(id, lat, true)
		return netblock.PingInfo{}, err
	}
	f.observe(id, lat, false)
	return info, nil
}

// PingAll sweeps a probe over every ring member, feeding the detector,
// and returns the handshake of each member that answered — the background
// heartbeat a supervisor (or any wallclock health loop) runs per tick.
func (f *Fleet) PingAll() map[string]netblock.PingInfo {
	infos := make(map[string]netblock.PingInfo)
	for _, m := range f.Ring().Members() {
		if info, err := f.Ping(m.ID); err == nil {
			infos[m.ID] = info
		}
	}
	return infos
}
