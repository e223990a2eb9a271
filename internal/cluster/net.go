package cluster

import (
	"errors"
	"fmt"

	"srccache/internal/netlink"
	"srccache/internal/vtime"
)

// Errors surfaced by the cluster layer.
var (
	// ErrUnreachable means the destination is partitioned away, dead, or
	// unknown; the caller burned the unreachable timeout learning that.
	ErrUnreachable = errors.New("cluster: peer unreachable")
	// ErrStaleEpoch means the caller's routing table epoch does not match
	// the node's — refetch the table and retry.
	ErrStaleEpoch = errors.New("cluster: stale routing epoch")
	// ErrNotOwner means the node does not own the addressed range under its
	// current table.
	ErrNotOwner = errors.New("cluster: not an owner of range")
	// ErrMissing means the node owns the range but holds no data for it
	// (never written, or wiped).
	ErrMissing = errors.New("cluster: range not present")
	// ErrNoReplica means every replica of the range failed — the cluster
	// lost the range, which the churn harness treats as a hard violation.
	ErrNoReplica = errors.New("cluster: no replica could serve")
)

// unreachableTimeout is the virtual time a caller burns discovering that a
// peer is dead or partitioned — the stand-in for a connect/request timeout.
const unreachableTimeout = 5 * vtime.Millisecond

// pairKey is an unordered endpoint pair, for the partition set.
func pairKey(a, b string) string {
	if a > b {
		a, b = b, a
	}
	return a + "|" + b
}

// Net is the simulation's network: one netlink.Link per node (its NIC),
// a partition set over endpoint pairs, and the virtual clock every hop
// advances. All traffic to or from a node — client requests, chain
// forwards, rebalance streams — rides that node's link, so degrading the
// link makes the node fail-slow for every caller at once.
//
// Net is single-goroutine like the rest of the simulation; the clock moves
// only when a hop or an explicit Advance moves it.
type Net struct {
	now   vtime.Time
	cfg   netlink.Config
	nodes map[string]*Node
	links map[string]*netlink.Link
	cut   map[string]bool
}

// NewNet builds a network whose node links all use cfg (Seed is offset per
// node so jittered links do not move in lockstep).
func NewNet(cfg netlink.Config) (*Net, error) {
	cfg, err := cfg.Validate()
	if err != nil {
		return nil, err
	}
	return &Net{
		cfg:   cfg,
		nodes: make(map[string]*Node),
		links: make(map[string]*netlink.Link),
		cut:   make(map[string]bool),
	}, nil
}

// Now reports the virtual clock.
func (n *Net) Now() vtime.Time { return n.now }

// Advance moves the clock forward d — idle time between operations.
func (n *Net) Advance(d vtime.Duration) {
	if d > 0 {
		n.now = n.now.Add(d)
	}
}

// register attaches a node and provisions its link. Node IDs are also the
// endpoint names partitions refer to; "client" and "control" are implicit
// endpoints with no link of their own.
func (n *Net) register(nd *Node) error {
	if _, ok := n.nodes[nd.id]; ok {
		return fmt.Errorf("cluster: duplicate node %q", nd.id)
	}
	cfg := n.cfg
	cfg.Seed += int64(len(n.links)) + 1
	link, err := netlink.New(cfg)
	if err != nil {
		return err
	}
	n.nodes[nd.id] = nd
	n.links[nd.id] = link
	return nil
}

// Link exposes a node's link so callers can Degrade it (fail-slow).
func (n *Net) Link(id string) *netlink.Link { return n.links[id] }

// Partition cuts both directions between endpoints a and b.
func (n *Net) Partition(a, b string) { n.cut[pairKey(a, b)] = true }

// Heal removes the partition between a and b.
func (n *Net) Heal(a, b string) { delete(n.cut, pairKey(a, b)) }

// HealAll removes every partition.
func (n *Net) HealAll() { n.cut = make(map[string]bool) }

// Partitioned reports whether a and b are cut off from each other.
func (n *Net) Partitioned(a, b string) bool { return n.cut[pairKey(a, b)] }

// Reachable reports whether from can currently talk to node id: it exists,
// is alive, and no partition separates them. This is the guard predicate
// the chaos schedule uses; it does not advance the clock.
func (n *Net) Reachable(from, id string) bool {
	nd := n.nodes[id]
	return nd != nil && nd.alive && !n.Partitioned(from, id)
}

// hop delivers nbytes from endpoint from to node to, advancing the clock
// by the link's transfer time — or by the unreachable timeout when the
// destination is dead, unknown, or partitioned away. It returns the node
// for the caller to invoke.
func (n *Net) hop(from, to string, nbytes int64) (*Node, error) {
	nd := n.nodes[to]
	if nd == nil || !nd.alive || n.Partitioned(from, to) {
		n.now = n.now.Add(unreachableTimeout)
		return nil, fmt.Errorf("%w: %s -> %s", ErrUnreachable, from, to)
	}
	n.now = n.links[to].Send(n.now, nbytes)
	return nd, nil
}

// reply models the response leg: nbytes from node from back toward the
// caller, on from's downstream link direction. The node answered the
// request, so only a partition raised mid-flight could cut the reply; the
// simulation applies partitions between operations, making reply
// infallible — it just costs time.
func (n *Net) reply(from string, nbytes int64) {
	n.now = n.links[from].Recv(n.now, nbytes)
}
