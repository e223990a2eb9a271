// Package fleet is the data path of the replicated cluster: a ChainBackend
// wraps a node's storage so every write it serves is forwarded down the
// range's replica chain before the node replies, and a Fleet client routes
// volume requests onto the ring with owner-order failover, stale-epoch
// refetch, and the range copies that repair and rebalance are made of.
//
// Both reach their peers through a cluster.Transport: TCP (netblock and the
// wall clock) in production, cluster.Net's virtual links in the churn
// harness — one protocol, whose seeds run the code that ships. A node's
// placement (routing table, quarantined copies, where to report a missed
// forward) is installed by the supervisor; see Placement.
package fleet

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"srccache/internal/cluster"
	"srccache/internal/netblock"
)

// repairChunk bounds one repair/stream transfer, comfortably under the
// protocol's MaxPayload so a large RangeBytes still streams.
const repairChunk = 256 << 10

var (
	// ErrNoSourceReplica reports that a repair or stream found no other
	// owner serving the range. It is not "never written": the copy is
	// retried once a source recovers.
	ErrNoSourceReplica = errors.New("no source replica")
	// ErrUnplaced reports a node that booted and has not been given a
	// placement yet. It serves nothing, and refuses a placement that does
	// not acknowledge the boot (Placement.Restarted): whatever its disk
	// holds may have missed writes while it was down.
	ErrUnplaced = errors.New("fleet: node has no placement")
)

// Placement is what the supervisor installs on a node.
type Placement struct {
	// Table is the routing table: reads and chain forwards follow Cur, and
	// a range owned in Cur or Next accepts writes.
	Table *cluster.Table
	// Quarantined lists the ranges whose local copy must not serve reads
	// until a verified repair. Each lies in [0, Cur.Ranges), as does each
	// Fill range; Install refuses a placement naming any other.
	Quarantined []int
	// Report records that member node missed a forward of range rng. A
	// write whose miss cannot be reported is refused rather than
	// acknowledged. Nil counts misses only (Forwards).
	Report func(node string, rng int) error
	// Restarted acknowledges that the node booted since its last
	// placement; the supervisor sets it once it has quarantined the
	// node's copies.
	Restarted bool
	// Fill carries a repair: range → bytes to store locally before the
	// placement takes effect. A repair travels the management channel,
	// not the data path, so the copy's chain never forwards it — a
	// successor that missed it would be reported as missing a write it
	// already holds.
	Fill map[int][]byte
}

// ChainBackend wraps a node's local storage with chain forwarding: a write
// (or trim) is applied locally and then pushed to the next owner after this
// node's own position in the range's replica chain, which forwards onward in
// turn — so a client write to the chain head replicates through the whole
// chain before the head's reply. The node derives its chain position from
// its placement and its own ID, so the wire protocol needs no chain field
// and any plain netblock client can address any replica.
//
// What the node serves is fenced by its placement (admit); a successor that
// misses a forward is reported through it (forwardPiece).
type ChainBackend struct {
	local netblock.Backend
	self  string
	peers peers

	mu     sync.Mutex
	ring   *cluster.Ring // nil until the first placement
	next   *cluster.Ring
	quar   []bool // by range; nil when nothing is quarantined
	report func(node string, rng int) error

	forwards    atomic.Int64
	forwardErrs atomic.Int64
}

// NewChainBackend wraps local storage for ring member self, placed on ring
// and forwarding over TCP. The local volume must span the ring's full
// logical volume: every node addresses global offsets, so replicas hold
// their ranges at identical offsets and a failover needs no translation.
func NewChainBackend(local netblock.Backend, self string, ring *cluster.Ring, opts netblock.ClientOptions) (*ChainBackend, error) {
	if ring == nil {
		return nil, fmt.Errorf("fleet: nil ring")
	}
	b, err := Boot(local, self, TCP(opts))
	if err != nil {
		return nil, err
	}
	if err := b.SetRing(ring); err != nil {
		return nil, err
	}
	return b, nil
}

// Boot wraps local storage for a supervised member that has just started:
// it has no placement, and serves nothing, until the supervisor installs
// one.
func Boot(local netblock.Backend, self string, tr cluster.Transport) (*ChainBackend, error) {
	if local == nil {
		return nil, fmt.Errorf("fleet: nil backend")
	}
	if self == "" {
		return nil, fmt.Errorf("fleet: empty node ID")
	}
	return &ChainBackend{local: local, self: self, peers: newPeers(tr)}, nil
}

// view is a snapshot of the node's placement, taken once per operation.
type view struct {
	cur, next *cluster.Ring
	quar      []bool
	report    func(node string, rng int) error
}

func (v view) quarantined(rng int) bool { return rng < len(v.quar) && v.quar[rng] }

func (b *ChainBackend) view() view {
	b.mu.Lock()
	defer b.mu.Unlock()
	return view{b.ring, b.next, b.quar, b.report}
}

// SetRing installs a stable placement by hand — the operator's (or a
// static deployment's) commit. The volume geometry must not change; only
// ownership may move.
func (b *ChainBackend) SetRing(ring *cluster.Ring) error {
	return b.Install(Placement{Table: &cluster.Table{Cur: ring}, Restarted: true})
}

// Install is the supervisor's push. A placement it refuses — unplaced, of
// the wrong geometry, or naming a quarantined or filled range outside its
// ring — leaves the disk untouched, its Fill included.
func (b *ChainBackend) Install(p Placement) error {
	t := p.Table
	if t == nil || t.Cur == nil {
		return fmt.Errorf("fleet: nil ring")
	}
	for _, r := range []*cluster.Ring{t.Cur, t.Next} {
		if r != nil && r.Size() != b.local.Size() {
			return fmt.Errorf("fleet: ring volume %d != backend size %d", r.Size(), b.local.Size())
		}
	}
	outside := func(rng int) bool { return rng < 0 || rng >= t.Cur.Ranges }
	bad := slices.IndexFunc(p.Quarantined, outside) >= 0
	for rng := range p.Fill {
		bad = bad || outside(rng)
	}
	if bad {
		return fmt.Errorf("fleet: placement names a range outside the ring's [0, %d)", t.Cur.Ranges)
	}
	// A placed node never becomes unplaced, so the check holds while the
	// fill is written.
	b.mu.Lock()
	unplaced := b.ring == nil && !p.Restarted
	b.mu.Unlock()
	if unplaced {
		return ErrUnplaced
	}
	for rng, data := range p.Fill {
		if err := b.local.WriteAt(data, int64(rng)*t.Cur.RangeBytes); err != nil {
			return err
		}
	}
	var quar []bool
	if len(p.Quarantined) > 0 {
		quar = make([]bool, t.Cur.Ranges)
		for _, rng := range p.Quarantined {
			quar[rng] = true
		}
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.ring, b.next, b.quar, b.report = t.Cur, t.Next, quar, p.Report
	return nil
}

// Forwards reports how many chain forwards succeeded and how many pieces
// found no reachable successor.
func (b *ChainBackend) Forwards() (ok, failed int64) {
	return b.forwards.Load(), b.forwardErrs.Load()
}

// admit is the node-side fence (wire v1 carries no epoch, so ownership is
// the fence): every range the extent touches must be owned by this node —
// in Cur for a read, in Cur or Next for a write, so a rebalance can stream
// to a new owner — and a read may not touch a quarantined copy. A range the
// node does not own is refused as a stale epoch, so a client routed by an
// outdated table refetches; the other refusals make it fail over.
func (b *ChainBackend) admit(v view, verb string, off, n int64, write bool) error {
	if v.cur == nil {
		return fmt.Errorf("%s on %s: %w", verb, b.self, ErrUnplaced)
	}
	for end := off + n; off < end; {
		rng := v.cur.RangeOf(off)
		owned := v.cur.OwnedBy(rng, b.self)
		if !owned && write && v.next != nil {
			owned = v.next.OwnedBy(rng, b.self)
		}
		if !owned {
			return fmt.Errorf("fleet: %s of range %d on %s: %w", verb, rng, b.self, netblock.ErrStaleEpoch)
		}
		if !write && v.quarantined(rng) {
			return fmt.Errorf("fleet: %s of range %d on %s: copy quarantined", verb, rng, b.self)
		}
		off = (int64(rng) + 1) * v.cur.RangeBytes
	}
	return nil
}

// ReadAt serves locally — reads never traverse the chain — once admit
// allows it.
func (b *ChainBackend) ReadAt(p []byte, off int64) error {
	if err := b.admit(b.view(), "read", off, int64(len(p)), false); err != nil {
		return err
	}
	return b.local.ReadAt(p, off)
}

// Size reports the local volume size.
func (b *ChainBackend) Size() int64 { return b.local.Size() }

// Flush is a local barrier. The Fleet client fans its Flush out to every
// member, so chain-forwarding the barrier would only duplicate it.
func (b *ChainBackend) Flush() error { return b.local.Flush() }

// WriteAt applies locally, then forwards each per-range piece down the
// chain.
func (b *ChainBackend) WriteAt(p []byte, off int64) error {
	v := b.view()
	if err := b.admit(v, "write", off, int64(len(p)), true); err != nil {
		return err
	}
	if err := b.local.WriteAt(p, off); err != nil {
		return err
	}
	base := off
	return b.forward(v, off, int64(len(p)), func(c cluster.Peer, pieceOff, n int64) error {
		return c.WriteAt(p[pieceOff-base:pieceOff-base+n], pieceOff)
	})
}

// Trim applies locally and forwards, mirroring WriteAt: a trim is a
// mutation, and replicas that miss it would answer reads with deleted
// data.
func (b *ChainBackend) Trim(off, n int64) error {
	v := b.view()
	if err := b.admit(v, "trim", off, n, true); err != nil {
		return err
	}
	if err := b.local.Trim(off, n); err != nil {
		return err
	}
	return b.forward(v, off, n, func(c cluster.Peer, off, n int64) error { return c.Trim(off, n) })
}

// forward splits [off, off+n) on range boundaries and pushes each piece to
// the next owner after this node's own chain position. send performs the
// piece-shaped operation on a successor.
func (b *ChainBackend) forward(v view, off, n int64, send func(c cluster.Peer, off, n int64) error) error {
	for end := off + n; off < end; {
		rng := v.cur.RangeOf(off)
		stop := min((int64(rng)+1)*v.cur.RangeBytes, end)
		if err := b.forwardPiece(v, rng, off, stop-off, send); err != nil {
			return err
		}
		off = stop
	}
	return nil
}

// forwardPiece sends one in-range piece to the first successor in the chain
// that takes it; the ones skipped missed it. The chain routes around a
// successor that refuses or does not answer. A successor that did not
// answer may be up and serving, so the supervisor must quarantine its copy
// now; if the miss cannot be reported (no supervisor is up) the write is
// refused, and the writer fails over to that successor. (One known to be
// down boots unplaced and is quarantined then; one that refused does not
// serve the range.)
//
// A quarantined copy keeps the bytes but stands in for nobody: it forwards
// nothing and refuses, so the writer fails over to a clean copy.
func (b *ChainBackend) forwardPiece(v view, rng int, off, n int64, send func(c cluster.Peer, off, n int64) error) error {
	if v.quarantined(rng) {
		return fmt.Errorf("fleet: write of range %d on %s: copy quarantined", rng, b.self)
	}
	owners := v.cur.Owners(rng)
	pos := len(owners)
	for i, id := range owners {
		if id == b.self {
			pos = i
		}
	}
	if pos+1 >= len(owners) {
		return nil // the tail, or a stream to a new owner: nothing to forward
	}
	var missed []string
	for _, id := range owners[pos+1:] {
		c, err := b.peers.get(v.cur, id)
		if err == nil {
			err = send(c, off, n)
		}
		if err == nil {
			b.forwards.Add(1)
			return reportMisses(v.report, rng, missed)
		}
		if unreachable(err) {
			missed = append(missed, id)
		}
	}
	b.forwardErrs.Add(1)
	return reportMisses(v.report, rng, missed)
}

// reportMisses reports the members that missed a write of range rng; the
// write fails if a miss cannot be reported. A nil report counts nothing.
func reportMisses(report func(node string, rng int) error, rng int, missed []string) error {
	for _, id := range missed {
		if report == nil {
			return nil
		}
		if err := report(id, rng); err != nil {
			return fmt.Errorf("fleet: range %d: %s missed the write and the miss cannot be reported: %w", rng, id, err)
		}
	}
	return nil
}

// unreachable reports whether a failed call may have left its peer up and
// serving without the call's effect: the transport failed, and the peer
// neither answered nor is known to be down. Over TCP every transport
// failure counts — a refused connection may be a partition's reset — and
// only the virtual network knows a member is down (cluster.ErrDown).
func unreachable(err error) bool {
	return !errors.Is(err, netblock.ErrRemote) && !errors.Is(err, cluster.ErrDown)
}

// Close closes the forwarding connections. The local backend belongs to the
// caller.
func (b *ChainBackend) Close() error { return b.peers.close() }

// peers caches one peer per member, dialed on first use through tr and
// kept for the member's lifetime: a TCP peer's client redials on the call
// after a transport error, and a virtual peer holds no connection.
type peers struct {
	tr    cluster.Transport
	mu    sync.Mutex
	conns map[string]cluster.Peer
}

func newPeers(tr cluster.Transport) peers {
	return peers{tr: tr, conns: make(map[string]cluster.Peer)}
}

// get returns the peer of ring's member id. A cached peer is returned before
// any ring lookup; only a first use looks the member up to dial it.
func (ps *peers) get(ring *cluster.Ring, id string) (cluster.Peer, error) {
	if c := ps.cached(id); c != nil {
		return c, nil
	}
	m, ok := ring.Member(id)
	if !ok {
		return nil, fmt.Errorf("fleet: no address for member %q", id)
	}
	return ps.member(m)
}

// member returns m's peer, dialing it on first use.
func (ps *peers) member(m cluster.Member) (cluster.Peer, error) {
	if c := ps.cached(m.ID); c != nil {
		return c, nil
	}
	c, err := ps.tr.Dial(m)
	if err != nil {
		return nil, err
	}
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if prev := ps.conns[m.ID]; prev != nil {
		c.Close()
		return prev, nil
	}
	ps.conns[m.ID] = c
	return c, nil
}

func (ps *peers) cached(id string) cluster.Peer {
	ps.mu.Lock()
	c := ps.conns[id]
	ps.mu.Unlock()
	return c
}

func (ps *peers) close() error {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	var err error
	for id, c := range ps.conns {
		if cerr := c.Close(); err == nil {
			err = cerr
		}
		delete(ps.conns, id)
	}
	return err
}

// Stats counts what the Fleet client did.
type Stats struct {
	Reads, Writes int64
	Failovers     int64 // attempts that moved past a dead or erroring owner
	Repairs       int64 // ranges copied by RepairRange or StreamMove
	Refetches     int64 // routing-table refetches after a pass no owner served
}

// Fleet is the host-side initiator: it splits volume requests on range
// boundaries, addresses each piece's replica chain head-first, and fails
// over across owners when one does not answer or refuses. When a member
// refuses with netblock.ErrStaleEpoch, the fleet refetches its routing
// table through the SetControl source and retries against the current
// owners.
type Fleet struct {
	peers peers

	mu      sync.Mutex
	ring    *cluster.Ring
	refetch func() *cluster.Ring
	report  func(node string, rng int) error

	reads, writes, failovers, repairs, refetches atomic.Int64
}

// New builds a fleet client over TCP for a ring whose members carry
// dialable addresses.
func New(ring *cluster.Ring, opts netblock.ClientOptions) (*Fleet, error) {
	return NewWith(ring, TCP(opts))
}

// NewWith builds a fleet client that reaches members through tr.
func NewWith(ring *cluster.Ring, tr cluster.Transport) (*Fleet, error) {
	if ring == nil {
		return nil, fmt.Errorf("fleet: nil ring")
	}
	return &Fleet{peers: newPeers(tr), ring: ring}, nil
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
	defer f.mu.Unlock()
	if ring.Size() != f.ring.Size() {
		return fmt.Errorf("fleet: ring volume %d != current %d", ring.Size(), f.ring.Size())
	}
	f.ring = ring
	return nil
}

// Stats returns the client's counters.
func (f *Fleet) Stats() Stats {
	return Stats{
		Reads:     f.reads.Load(),
		Writes:    f.writes.Load(),
		Failovers: f.failovers.Load(),
		Repairs:   f.repairs.Load(),
		Refetches: f.refetches.Load(),
	}
}

// SetControl installs the control plane's two client-facing calls.
// refetch returns the committed placement: a write consults it first, and
// any op after a stale-epoch refusal (with none, a refusal stays fatal).
// report records an owner that a write failed over past without an answer:
// that owner may be up and serving, it missed the write, and — unlike a
// successor the chain skips — only this client knows. A write whose miss
// cannot be reported fails (its bytes may have landed; a retry rewrites
// them).
func (f *Fleet) SetControl(refetch func() *cluster.Ring, report func(node string, rng int) error) {
	f.mu.Lock()
	f.refetch, f.report = refetch, report
	f.mu.Unlock()
}

// refetchRing pulls a fresh placement from the SetControl source and
// installs it, reporting whether the routing actually changed. The
// stale-epoch retry loop stops when it did not, so a source that cannot
// advance the ring cannot spin the client.
func (f *Fleet) refetchRing() bool {
	f.mu.Lock()
	fn, old := f.refetch, f.ring
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

// Close closes every member connection.
func (f *Fleet) Close() error { return f.peers.close() }

// Ping probes member m, spares included, over the fleet's peer for it.
func (f *Fleet) Ping(m cluster.Member) (netblock.PingInfo, error) {
	c, err := f.peers.member(m)
	if err != nil {
		return netblock.PingInfo{}, err
	}
	return c.Ping()
}

// WriteAt stores p at volume offset off. Each per-range piece goes to the
// first owner that accepts it; that head's ChainBackend replicates down the
// chain before its reply.
func (f *Fleet) WriteAt(p []byte, off int64) error {
	return f.split(p, off, true, func(rng int, piece []byte, off int64) error {
		skipped, err := f.tryOwners(rng, func(c cluster.Peer) error { return c.WriteAt(piece, off) })
		if err != nil || len(skipped) == 0 {
			return err
		}
		f.mu.Lock()
		report := f.report
		f.mu.Unlock()
		return reportMisses(report, rng, skipped)
	})
}

// ReadAt fills p from volume offset off, failing each piece over across its
// replica chain until one owner serves.
func (f *Fleet) ReadAt(p []byte, off int64) error {
	return f.split(p, off, false, func(rng int, piece []byte, off int64) error {
		_, err := f.tryOwners(rng, func(c cluster.Peer) error { return c.ReadAt(piece, off) })
		return err
	})
}

// Flush barriers every member. Chain heads do not forward barriers, so the
// client issues one per node; a member that does not answer fails the call
// (a barrier that silently skipped a replica is not a barrier).
func (f *Fleet) Flush() error {
	ring := f.Ring()
	for _, m := range ring.Members() {
		c, err := f.peers.get(ring, m.ID)
		if err != nil {
			return fmt.Errorf("fleet: flush %s: %w", m.ID, err)
		}
		if err := c.Flush(); err != nil {
			return fmt.Errorf("fleet: flush %s: %w", m.ID, err)
		}
	}
	return nil
}

// split carves [off, off+len(p)) into per-range pieces. A write first
// takes the committed placement from the control plane, if one is
// installed: wire v1 carries no epoch, so a write routed by an outdated
// table could land on an owner that is no longer the head and skip the new
// one, and no node could tell. (A stale read is refused by the fence.)
func (f *Fleet) split(p []byte, off int64, write bool, op func(rng int, piece []byte, off int64) error) error {
	f.mu.Lock()
	ring, refetch := f.ring, f.refetch
	f.mu.Unlock()
	counter := &f.reads
	if write {
		counter = &f.writes
		if refetch != nil && f.refetchRing() {
			ring = f.Ring()
		}
	}
	if off < 0 || off+int64(len(p)) > ring.Size() {
		return fmt.Errorf("fleet: extent [%d,%d) outside volume of %d bytes", off, off+int64(len(p)), ring.Size())
	}
	for len(p) > 0 {
		rng := ring.RangeOf(off)
		n := min((int64(rng)+1)*ring.RangeBytes-off, int64(len(p)))
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
// serves, and returns the owners it skipped unanswered (see unreachable).
// Remote refusals fail over too: a quarantined or just-restarted replica
// refuses while its sibling serves. A stale-epoch refusal is different —
// every member of an outdated chain refuses the same way — so the client
// stops, refetches its routing table and retries against the current
// owners.
func (f *Fleet) tryOwners(rng int, op func(c cluster.Peer) error) ([]string, error) {
	var last error
	for attempt := 0; attempt <= maxStaleRetries; attempt++ {
		ring := f.Ring()
		var skipped []string
		for _, id := range ring.Owners(rng) {
			c, err := f.peers.get(ring, id)
			if err == nil {
				err = op(c)
			}
			if err == nil {
				return skipped, nil
			}
			last = err
			if errors.Is(err, netblock.ErrStaleEpoch) {
				break
			}
			f.failovers.Add(1)
			if unreachable(err) {
				skipped = append(skipped, id)
			}
		}
		// Every owner refused or failed: a refusal as stale says the table
		// is old, and so may a chain that is all gone. Refetch, and retry
		// if the placement moved.
		if f.refetchRing() {
			f.refetches.Add(1)
			continue
		}
		break
	}
	return nil, fmt.Errorf("fleet: range %d: no replica served: %w", rng, last)
}

// RepairRange copies range rng onto node id from the first other owner
// that serves it, and verifies the copy: the source is read again and must
// still hold what was copied, so a write that raced the copy fails the
// repair instead of leaving the target behind. The source must serve the
// read, so a quarantined copy is never a source. install stores the bytes
// on the target — the supervisor's push, which no chain forwards. A
// stale-epoch refusal surfaces instead of being refetched away: it means
// the caller's ring no longer matches the members', and repairing under it
// would copy the wrong placement.
func (f *Fleet) RepairRange(id string, rng int, install func(data []byte) error) error {
	ring := f.Ring()
	if err := f.copyRange(ring, rng, id, install, true); err != nil {
		return fmt.Errorf("fleet: repair range %d on %s: %w", rng, id, err)
	}
	f.repairs.Add(1)
	return nil
}

// StreamMove copies one pending move — range mv.Range from a serving old
// owner to mv.Target, which may be a member only the next ring names. It is
// the step a supervisor journals around: re-streaming after a crash is
// idempotent (same bytes at the same offsets).
func (f *Fleet) StreamMove(old, next *cluster.Ring, mv cluster.Move) error {
	if err := f.copyRange(old, mv.Range, mv.Target, f.writer(next, mv.Target, mv.Range), false); err != nil {
		return fmt.Errorf("fleet: stream range %d to %s: %w", mv.Range, mv.Target, err)
	}
	f.repairs.Add(1)
	return nil
}

// writer stores a whole range on member id over the data path.
func (f *Fleet) writer(ring *cluster.Ring, id string, rng int) func(data []byte) error {
	return func(data []byte) error {
		c, err := f.peers.get(ring, id)
		if err == nil {
			err = chunked(data, int64(rng)*ring.RangeBytes, c.WriteAt)
		}
		if err != nil {
			return fmt.Errorf("write %s: %w", id, err)
		}
		return nil
	}
}

// copyRange installs range rng, read from the first of ring's owners other
// than skip that serves all of it.
func (f *Fleet) copyRange(ring *cluster.Ring, rng int, skip string, install func(data []byte) error, verify bool) error {
	base := int64(rng) * ring.RangeBytes
	data := make([]byte, ring.RangeBytes)
	for _, id := range ring.Owners(rng) {
		if id == skip {
			continue
		}
		c, err := f.peers.get(ring, id)
		if err != nil {
			continue
		}
		if err := chunked(data, base, c.ReadAt); err != nil {
			if errors.Is(err, netblock.ErrStaleEpoch) {
				return fmt.Errorf("source %s: %w", id, err)
			}
			continue
		}
		if err := install(data); err != nil || !verify {
			return err
		}
		again := make([]byte, len(data))
		if err := chunked(again, base, c.ReadAt); err != nil {
			return fmt.Errorf("verify %s: %w", id, err)
		}
		if !bytes.Equal(again, data) {
			return fmt.Errorf("verify %s: range changed during the copy", id)
		}
		return nil
	}
	return ErrNoSourceReplica
}

// chunked runs op over buf in repairChunk pieces at volume offset base.
func chunked(buf []byte, base int64, op func(p []byte, off int64) error) error {
	for done := 0; done < len(buf); done += repairChunk {
		if err := op(buf[done:min(done+repairChunk, len(buf))], base+int64(done)); err != nil {
			return err
		}
	}
	return nil
}
