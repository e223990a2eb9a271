package cluster

import (
	"errors"
	"fmt"
	"time"

	"srccache/internal/netblock"
	"srccache/internal/netlink"
	"srccache/internal/vtime"
)

var (
	// ErrUnreachable means the destination is partitioned away or
	// unknown; the caller burned the unreachable timeout learning that.
	ErrUnreachable = errors.New("cluster: peer unreachable")
	// ErrDown means nothing serves at the destination: the virtual network
	// knows the member is dead, and its next incarnation boots unplaced.
	// TCP cannot tell a dead member from a partition and never reports it.
	ErrDown = errors.New("cluster: peer down")
)

// unreachableTimeout is the virtual time a caller burns discovering that a
// peer is dead or partitioned — the stand-in for a connect/request timeout.
const unreachableTimeout = 5 * vtime.Millisecond

// pingBytes approximates the opPing wire cost (17-byte header + 17-byte
// payload) so the detector's latency samples ride the same degraded links
// as data traffic.
const pingBytes = 34

// pairKey is an unordered endpoint pair, for the partition set.
func pairKey(a, b string) string {
	if a > b {
		a, b = b, a
	}
	return a + "|" + b
}

// vnode is one attached member: the backend it serves (a node's chain
// backend), the epoch its pings advertise, and its NIC.
type vnode struct {
	b     netblock.Backend
	link  *netlink.Link
	epoch uint64
	alive bool
}

// Net is the virtual network: one netlink.Link per node (its NIC), a
// partition set over endpoint pairs, and the virtual clock every hop
// advances. All traffic to a node — client requests, chain forwards,
// supervisor pings and streams — rides that node's link, so degrading the
// link makes the node fail-slow for every caller at once. Endpoints name
// callers for partitions: node IDs, plus any other name ("client",
// "control") for callers with no link of their own.
//
// Net is single-goroutine; the clock moves only when a hop, a Sleep or an
// explicit Advance moves it.
type Net struct {
	now   vtime.Time
	cfg   netlink.Config
	nodes map[string]*vnode
	cut   map[string]bool
}

// NewNet builds a network whose node links all use cfg (Seed is offset per
// node so jittered links do not move in lockstep).
func NewNet(cfg netlink.Config) (*Net, error) {
	cfg, err := cfg.Validate()
	if err != nil {
		return nil, err
	}
	return &Net{cfg: cfg, nodes: make(map[string]*vnode), cut: make(map[string]bool)}, nil
}

// Now reports the virtual clock.
func (n *Net) Now() vtime.Time { return n.now }

// Advance moves the clock forward d — idle time between operations.
func (n *Net) Advance(d vtime.Duration) {
	if d > 0 {
		n.now = n.now.Add(d)
	}
}

// Attach boots node id serving b, advertising epoch 0 until SetEpoch — a
// first boot provisions the node's link, a reboot (a new backend over the
// old or a fresh disk) keeps it.
func (n *Net) Attach(id string, b netblock.Backend) error {
	nd := n.nodes[id]
	if nd == nil {
		cfg := n.cfg
		cfg.Seed += int64(len(n.nodes)) + 1
		link, err := netlink.New(cfg)
		if err != nil {
			return err
		}
		nd = &vnode{link: link}
		n.nodes[id] = nd
	}
	nd.b, nd.epoch, nd.alive = b, 0, true
	return nil
}

// Kill fail-stops node id: it answers nothing until the next Attach.
func (n *Net) Kill(id string) {
	if nd := n.nodes[id]; nd != nil {
		nd.alive = false
	}
}

// SetEpoch sets the epoch node id's pings advertise.
func (n *Net) SetEpoch(id string, e uint64) {
	if nd := n.nodes[id]; nd != nil {
		nd.epoch = e
	}
}

// Alive reports whether node id is up.
func (n *Net) Alive(id string) bool {
	nd := n.nodes[id]
	return nd != nil && nd.alive
}

// Link exposes a node's link so callers can Degrade it (fail-slow).
func (n *Net) Link(id string) *netlink.Link { return n.nodes[id].link }

// Partition cuts both directions between endpoints a and b.
func (n *Net) Partition(a, b string) { n.cut[pairKey(a, b)] = true }

// Heal removes the partition between a and b.
func (n *Net) Heal(a, b string) { delete(n.cut, pairKey(a, b)) }

// HealAll removes every partition.
func (n *Net) HealAll() { n.cut = make(map[string]bool) }

// Partitioned reports whether a and b are cut off from each other.
func (n *Net) Partitioned(a, b string) bool { return n.cut[pairKey(a, b)] }

// Reachable reports whether from can currently talk to node id: it exists,
// is alive, and no partition separates them. It does not advance the clock.
func (n *Net) Reachable(from, id string) bool {
	return n.Alive(id) && !n.Partitioned(from, id)
}

// hop delivers nbytes from endpoint from to node to, advancing the clock
// by the link's transfer time — or by the unreachable timeout when the
// destination is down or partitioned away.
func (n *Net) hop(from, to string, nbytes int64) (*vnode, error) {
	switch {
	case !n.Alive(to):
		n.now = n.now.Add(unreachableTimeout)
		return nil, fmt.Errorf("%w: %s -> %s", ErrDown, from, to)
	case n.Partitioned(from, to):
		n.now = n.now.Add(unreachableTimeout)
		return nil, fmt.Errorf("%w: %s -> %s", ErrUnreachable, from, to)
	}
	nd := n.nodes[to]
	n.now = nd.link.Send(n.now, nbytes)
	return nd, nil
}

// Endpoint is the Transport for caller from: its dials reach attached
// nodes over the virtual links, and its clock is the network's.
func (n *Net) Endpoint(from string) Transport { return endpoint{n, from} }

type endpoint struct {
	n    *Net
	from string
}

func (e endpoint) Dial(m Member) (Peer, error) {
	if e.n.nodes[m.ID] == nil {
		return nil, fmt.Errorf("%w: no node %q", ErrUnreachable, m.ID)
	}
	return vpeer{e.n, e.from, m.ID}, nil
}

func (e endpoint) Now() time.Time        { return time.Unix(0, int64(e.n.now)) }
func (e endpoint) Sleep(d time.Duration) { e.n.Advance(vtime.FromStd(d)) }

// vpeer is one endpoint's view of a node. Every call is a request hop and
// a reply on the node's link; the node's own refusals come back wrapped in
// netblock.ErrRemote, exactly as the TCP client reports them.
type vpeer struct {
	n        *Net
	from, to string
}

func (p vpeer) call(req, resp, off, length int64, op func(b netblock.Backend) error) error {
	nd, err := p.n.hop(p.from, p.to, req)
	if err != nil {
		return err
	}
	if off < 0 || length < 0 || off > nd.b.Size()-length {
		err = fmt.Errorf("[%d,%d) out of range", off, off+length)
	} else {
		err = op(nd.b)
	}
	p.n.now = nd.link.Recv(p.n.now, resp)
	if err != nil {
		return fmt.Errorf("%w: %w", netblock.ErrRemote, err)
	}
	return nil
}

func (p vpeer) ReadAt(b []byte, off int64) error {
	n := int64(len(b))
	return p.call(pingBytes, n+pingBytes, off, n, func(be netblock.Backend) error { return be.ReadAt(b, off) })
}

func (p vpeer) WriteAt(b []byte, off int64) error {
	n := int64(len(b))
	return p.call(n+pingBytes, pingBytes, off, n, func(be netblock.Backend) error { return be.WriteAt(b, off) })
}

func (p vpeer) Trim(off, n int64) error {
	return p.call(pingBytes, pingBytes, off, n, func(be netblock.Backend) error { return be.Trim(off, n) })
}

func (p vpeer) Flush() error {
	return p.call(pingBytes, pingBytes, 0, 0, func(be netblock.Backend) error { return be.Flush() })
}

func (p vpeer) Ping() (netblock.PingInfo, error) {
	var info netblock.PingInfo
	err := p.call(pingBytes, pingBytes, 0, 0, func(be netblock.Backend) error {
		info = netblock.PingInfo{Size: be.Size(), Epoch: p.n.nodes[p.to].epoch}
		return nil
	})
	return info, err
}

func (p vpeer) Close() error { return nil }
