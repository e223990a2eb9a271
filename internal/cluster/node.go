package cluster

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
)

// pingBytes approximates the opPing wire cost (17-byte header + 17-byte
// payload) so the detector's latency samples ride the same degraded links
// as data traffic.
const pingBytes = 34

// Node is one cache node: a slice of the logical volume held as
// range-indexed byte buffers, served under an epoch-stamped routing table.
// Nodes are invoked through Net (which charges link time and enforces
// partitions), never directly — except by the control plane, which is
// modeled as an out-of-band management network.
type Node struct {
	id    string
	net   *Net
	table *Table
	alive bool
	drain bool
	data  map[int][]byte

	// Per-op counters, the in-memory twin of netblock's Server.OpStats.
	reads, writes, forwards, applies int64
}

// NewNode creates a node and attaches it to the network, alive but with no
// routing table until the control plane pushes one.
func NewNode(n *Net, id string) (*Node, error) {
	if id == "" || id == "client" || id == "control" {
		return nil, fmt.Errorf("cluster: invalid node id %q", id)
	}
	nd := &Node{id: id, net: n, alive: true, data: make(map[int][]byte)}
	if err := n.register(nd); err != nil {
		return nil, err
	}
	return nd, nil
}

// ID returns the node's identity.
func (nd *Node) ID() string { return nd.id }

// Alive reports whether the node's process is up.
func (nd *Node) Alive() bool { return nd.alive }

// Kill crashes the process. Data survives (it is a cache device, not RAM);
// what rots while the node is down is freshness, which the client tracks
// as degraded ranges.
func (nd *Node) Kill() { nd.alive = false }

// Restart brings a killed node back with its data intact. The control
// plane must re-push the current table before the node serves again.
func (nd *Node) Restart() { nd.alive = true }

// Wipe discards all data — the disk-replacement restart. The caller is
// responsible for marking every range the node owns as degraded until
// anti-entropy repair refills it.
func (nd *Node) Wipe() { nd.data = make(map[int][]byte) }

// SetTable installs a routing table. On a stable table the node drops
// ranges it no longer owns (the rebalance commit) and enters drain when it
// has left the ring entirely.
func (nd *Node) SetTable(t *Table) {
	nd.table = t
	if !t.Stable() {
		return
	}
	for rng := range nd.data {
		if !t.Cur.OwnedBy(rng, nd.id) {
			delete(nd.data, rng)
		}
	}
	_, in := t.Cur.Member(nd.id)
	nd.drain = !in
}

// Epoch reports the node's current table epoch (0 before the first push).
func (nd *Node) Epoch() uint64 {
	if nd.table == nil {
		return 0
	}
	return nd.table.Epoch
}

// Draining reports whether the node has left the ring.
func (nd *Node) Draining() bool { return nd.drain }

// checkEpoch rejects requests stamped with a different epoch than the
// node's table. Both directions are stale: a behind client must refetch,
// and an ahead client means this node missed a push (it was down) and must
// not serve under rules it does not know.
func (nd *Node) checkEpoch(epoch uint64) error {
	if nd.table == nil || nd.table.Epoch != epoch {
		return fmt.Errorf("%w: node %s at %d, request at %d", ErrStaleEpoch, nd.id, nd.Epoch(), epoch)
	}
	return nil
}

// handleWrite applies a write and forwards it down the chain. chain is the
// range's full write-owner list in forwarding order and pos the node's own
// position in it; the node applies locally, then forwards to the next
// reachable successor (skipping dead ones, which the client will mark
// degraded). It returns the IDs that applied, in chain order. The server
// side of the stale-epoch protocol: an epoch mismatch is surfaced to the
// remote client, whose writeRange refetches and retries.
func (nd *Node) handleWrite(epoch uint64, rng int, off int64, p []byte, chain []string, pos int) ([]string, error) {
	if err := nd.checkEpoch(epoch); err != nil {
		return nil, err
	}
	if !nd.table.writeOwned(rng, nd.id) {
		return nil, fmt.Errorf("%w: %s, range %d", ErrNotOwner, nd.id, rng)
	}
	if off < 0 || off+int64(len(p)) > nd.table.Cur.RangeBytes {
		return nil, fmt.Errorf("cluster: write [%d,%d) outside range of %d bytes", off, off+int64(len(p)), nd.table.Cur.RangeBytes)
	}
	buf := nd.data[rng]
	if buf == nil {
		buf = make([]byte, nd.table.Cur.RangeBytes)
		nd.data[rng] = buf
	}
	copy(buf[off:], p)
	nd.writes++
	applied := []string{nd.id}

	// Forward to the next live successor. A failed forward is skipped, not
	// fatal: the write stays acknowledged as long as one replica applied,
	// and the client quarantines the replicas that missed it.
	for next := pos + 1; next < len(chain); next++ {
		peer, err := nd.net.hop(nd.id, chain[next], int64(len(p))+64)
		if err != nil {
			continue
		}
		nd.forwards++
		down, err := peer.handleWrite(epoch, rng, off, p, chain, next)
		nd.net.reply(chain[next], 64)
		if err == nil {
			applied = append(applied, down...)
		}
		break
	}
	return applied, nil
}

// handleRead serves a read from local data. Like handleWrite it surfaces
// an epoch mismatch to the remote client (readRange), which refetches.
func (nd *Node) handleRead(epoch uint64, rng int, off, length int64) ([]byte, error) {
	if err := nd.checkEpoch(epoch); err != nil {
		return nil, err
	}
	buf := nd.data[rng]
	if buf == nil {
		return nil, fmt.Errorf("%w: %s, range %d", ErrMissing, nd.id, rng)
	}
	if off < 0 || length < 0 || off+length > int64(len(buf)) {
		return nil, fmt.Errorf("cluster: read [%d,%d) outside range of %d bytes", off, off+length, len(buf))
	}
	nd.reads++
	out := make([]byte, length)
	copy(out, buf[off:])
	return out, nil
}

// handlePing is the health probe: cheap, epoch-free (a stale client must
// still be able to measure liveness), reporting the node's view.
func (nd *Node) handlePing() (epoch uint64, draining bool) {
	return nd.Epoch(), nd.drain
}

// ApplyRange installs a full clean copy of a range — the receive side of
// rebalance streaming and anti-entropy repair.
func (nd *Node) ApplyRange(rng int, data []byte) {
	buf := make([]byte, len(data))
	copy(buf, data)
	nd.data[rng] = buf
	nd.applies++
}

// HashRange fingerprints a range's contents for anti-entropy comparison.
// ok is false when the node holds no data for the range.
func (nd *Node) HashRange(rng int) (sum uint64, ok bool) {
	buf := nd.data[rng]
	if buf == nil {
		return 0, false
	}
	h := fnv.New64a()
	var key [8]byte
	binary.BigEndian.PutUint64(key[:], uint64(rng))
	h.Write(key[:])
	h.Write(buf)
	return h.Sum64(), true
}

// rangeCopy returns a copy of a range's bytes (nil when absent) — the send
// side of rebalance streaming.
func (nd *Node) rangeCopy(rng int) []byte {
	buf := nd.data[rng]
	if buf == nil {
		return nil
	}
	out := make([]byte, len(buf))
	copy(out, buf)
	return out
}

// Stats reports the node's op counters.
func (nd *Node) Stats() (reads, writes, forwards, applies int64) {
	return nd.reads, nd.writes, nd.forwards, nd.applies
}
