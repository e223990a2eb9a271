package cluster

import (
	"errors"
	"fmt"
	"sort"
)

// DegKey names one quarantined copy: node id × range.
type DegKey struct {
	Node  string
	Range int
}

// ClientStats counts what the routing client did — the churn harness's
// coverage evidence.
type ClientStats struct {
	Reads, Writes     int64
	Failovers         int64 // read attempts that moved to another replica
	Refetches         int64 // table refetches triggered by ErrStaleEpoch
	PartialWrites     int64 // acked writes that missed at least one replica
	Repaired          int64 // ranges healed by anti-entropy
	DegradedHighwater int   // most copies quarantined at once
}

// Client routes volume reads and writes onto the fleet: it splits requests
// on range boundaries, addresses the replica chain from its cached routing
// table, refetches the table when a node rejects its epoch, fails reads
// over across replicas, and quarantines copies that miss writes so no read
// is ever served stale. One Client is one host-side initiator; like the
// rest of the package it is single-goroutine and wallclock-free.
type Client struct {
	net   *Net
	fetch func() *Table
	table *Table
	det   *Detector

	degraded map[DegKey]bool
	stats    ClientStats
}

// maxEpochRetries bounds how many table refetches one operation will chase
// before giving up — the control plane would have to burn epochs faster
// than the client can follow.
const maxEpochRetries = 4

// NewClient builds a client. fetch returns the control plane's current
// table (the in-process stand-in for a table-fetch RPC); det scores every
// interaction for failure detection.
func NewClient(n *Net, fetch func() *Table, det *Detector) (*Client, error) {
	if fetch == nil {
		return nil, fmt.Errorf("cluster: nil table fetch")
	}
	if det == nil {
		det = NewDetector(DetectorConfig{})
	}
	return &Client{net: n, fetch: fetch, table: fetch(), det: det, degraded: make(map[DegKey]bool)}, nil
}

// Stats returns a copy of the client's counters.
func (cl *Client) Stats() ClientStats { return cl.stats }

// Detector exposes the client's failure detector.
func (cl *Client) Detector() *Detector { return cl.det }

// Table returns the client's cached routing table.
func (cl *Client) Table() *Table { return cl.table }

// refresh refetches the routing table from the control plane.
func (cl *Client) refresh() {
	cl.table = cl.fetch()
	cl.stats.Refetches++
}

// MarkDegraded quarantines a copy: reads will skip it until repair clears
// it. The harness calls this for operator-visible events (a wiped disk, a
// join target not yet streamed); the client calls it itself for replicas
// that miss writes.
func (cl *Client) MarkDegraded(node string, rng int) {
	cl.degraded[DegKey{node, rng}] = true
	if len(cl.degraded) > cl.stats.DegradedHighwater {
		cl.stats.DegradedHighwater = len(cl.degraded)
	}
}

// Degraded reports whether a copy is quarantined.
func (cl *Client) Degraded(node string, rng int) bool {
	return cl.degraded[DegKey{node, rng}]
}

// DegradedCount reports how many copies are quarantined.
func (cl *Client) DegradedCount() int { return len(cl.degraded) }

// degradedKeys returns the quarantine set in deterministic order.
func (cl *Client) degradedKeys() []DegKey {
	keys := make([]DegKey, 0, len(cl.degraded))
	for k := range cl.degraded {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Node != keys[j].Node {
			return keys[i].Node < keys[j].Node
		}
		return keys[i].Range < keys[j].Range
	})
	return keys
}

// WriteAt writes p at volume offset off, splitting on range boundaries.
// Every piece must acknowledge on at least one replica or the whole call
// fails (no partial acks are reported as success at the volume level —
// pieces that did land stay durable and later reads of them are valid).
func (cl *Client) WriteAt(p []byte, off int64) error {
	return cl.split(p, off, cl.writeRange)
}

// ReadAt fills p from volume offset off.
func (cl *Client) ReadAt(p []byte, off int64) error {
	return cl.split(p, off, cl.readRange)
}

// split carves a volume extent into per-range pieces.
func (cl *Client) split(p []byte, off int64, op func(rng int, off int64, p []byte) error) error {
	if off < 0 || off+int64(len(p)) > cl.table.Cur.Size() {
		return fmt.Errorf("cluster: extent [%d,%d) outside volume of %d bytes", off, off+int64(len(p)), cl.table.Cur.Size())
	}
	rb := cl.table.Cur.RangeBytes
	for len(p) > 0 {
		rng := int(off / rb)
		in := off % rb
		n := rb - in
		if n > int64(len(p)) {
			n = int64(len(p))
		}
		if err := op(rng, in, p[:n]); err != nil {
			return err
		}
		off += n
		p = p[n:]
	}
	return nil
}

// writeRange replicates one in-range write through the owner chain. The
// head is the first live, reachable, non-quarantined owner — a clean head
// guarantees every acknowledged write leaves at least one clean copy, the
// invariant reads rely on. Owners the chain could not reach are
// quarantined.
func (cl *Client) writeRange(rng int, off int64, p []byte) error {
	for attempt := 0; attempt <= maxEpochRetries; attempt++ {
		owners := cl.table.WriteOwners(rng)
		applied, err := cl.chainWrite(rng, off, p, owners)
		if errors.Is(err, ErrStaleEpoch) {
			cl.refresh()
			continue
		}
		if err != nil {
			return err
		}
		ok := make(map[string]bool, len(applied))
		for _, id := range applied {
			ok[id] = true
		}
		missed := 0
		for _, id := range owners {
			if !ok[id] {
				cl.MarkDegraded(id, rng)
				missed++
			}
		}
		if missed > 0 {
			cl.stats.PartialWrites++
		}
		cl.stats.Writes++
		return nil
	}
	return fmt.Errorf("cluster: write range %d: epochs kept moving after %d refetches", rng, maxEpochRetries)
}

// chainWrite tries successive candidate heads until one serves. Clean
// candidates are tried before quarantined ones: a quarantined head keeps
// the write durable but cannot restore the clean-copy invariant, so it is
// strictly a last resort (and unreachable under the harness's guarded
// schedules). A stale-epoch refusal from the head propagates unchanged:
// writeRange owns the refetch-and-retry loop.
func (cl *Client) chainWrite(rng int, off int64, p []byte, owners []string) ([]string, error) {
	try := func(quarantined bool) ([]string, error) {
		for pos, id := range owners {
			if cl.Degraded(id, rng) != quarantined {
				continue
			}
			nd, err := cl.net.hop("client", id, int64(len(p))+64)
			if err != nil {
				cl.det.Observe(id, unreachableTimeout, true)
				continue
			}
			applied, err := nd.handleWrite(cl.table.Epoch, rng, off, p, owners, pos)
			cl.net.reply(id, 64)
			cl.det.ObserveOK(id) // it answered; even an error reply proves liveness
			if err != nil {
				return nil, err
			}
			return applied, nil
		}
		return nil, nil
	}
	for _, quarantined := range []bool{false, true} {
		applied, err := try(quarantined)
		if err != nil || applied != nil {
			return applied, err
		}
	}
	return nil, fmt.Errorf("%w: write range %d", ErrNoReplica, rng)
}

// readRange serves one in-range read from the healthiest clean replica,
// failing over across the chain. Quarantined copies are never read — a
// stale copy answers with the wrong bytes, not an error, so correctness
// depends on skipping them outright.
func (cl *Client) readRange(rng int, off int64, p []byte) error {
	for attempt := 0; attempt <= maxEpochRetries; attempt++ {
		owners := cl.table.ReadOwners(rng)
		// Route around fail-slow: healthy replicas first, Slow ones as
		// fallback, Down ones last (the detector may be wrong — a "down"
		// node that answers is better than no answer).
		sort.SliceStable(owners, func(i, j int) bool {
			return cl.det.State(owners[i]) < cl.det.State(owners[j])
		})
		stale := false
		tried := 0
		for _, id := range owners {
			if cl.Degraded(id, rng) {
				continue
			}
			tried++
			nd, err := cl.net.hop("client", id, 64)
			if err != nil {
				cl.det.Observe(id, unreachableTimeout, true)
				cl.stats.Failovers++
				continue
			}
			data, err := nd.handleRead(cl.table.Epoch, rng, off, int64(len(p)))
			cl.net.reply(id, int64(len(data))+16)
			cl.det.ObserveOK(id)
			if errors.Is(err, ErrStaleEpoch) {
				stale = true
				break
			}
			if err != nil {
				cl.stats.Failovers++
				continue
			}
			copy(p, data)
			cl.stats.Reads++
			return nil
		}
		if stale {
			cl.refresh()
			continue
		}
		return fmt.Errorf("%w: read range %d (%d clean replicas tried)", ErrNoReplica, rng, tried)
	}
	return fmt.Errorf("cluster: read range %d: epochs kept moving after %d refetches", rng, maxEpochRetries)
}

// PingAll sweeps a health probe over every table member, feeding the
// failure detector — the background heartbeat that classifies fail-stop
// (no answer) and fail-slow (answers, slowly) members.
func (cl *Client) PingAll() {
	for _, id := range cl.table.members() {
		start := cl.net.Now()
		nd, err := cl.net.hop("client", id, pingBytes)
		if err != nil {
			cl.det.Observe(id, unreachableTimeout, true)
			continue
		}
		epoch, _ := nd.handlePing()
		cl.net.reply(id, pingBytes)
		cl.det.Observe(id, cl.net.Now().Sub(start), false)
		if epoch > cl.table.Epoch {
			cl.refresh()
		}
	}
}

// Repair runs anti-entropy over the quarantine set: for every degraded
// copy whose node is alive and still an owner, fetch a fingerprint from a
// clean replica, stream the bytes across, verify, and lift the quarantine.
// Marks for nodes that no longer own the range (membership moved on) or
// whose data was dropped are lifted without traffic.
func (cl *Client) Repair() (healed int, err error) {
	for _, k := range cl.degradedKeys() {
		owners := cl.table.WriteOwners(k.Range)
		owned := false
		for _, id := range owners {
			if id == k.Node {
				owned = true
			}
		}
		if !owned {
			delete(cl.degraded, k)
			continue
		}
		if !cl.net.Reachable("client", k.Node) {
			continue // still down or cut off; repair again later
		}
		var src *Node
		hasData := false
		for _, id := range owners {
			nd := cl.net.nodes[id]
			if nd == nil {
				continue
			}
			if _, ok := nd.HashRange(k.Range); !ok {
				continue
			}
			hasData = true
			if id == k.Node || cl.Degraded(id, k.Range) || !cl.net.Reachable(k.Node, id) {
				continue
			}
			src = nd
			break
		}
		if src == nil {
			// Lift the mark only when no write owner holds any data — the
			// range was never written, so the quarantine guards nothing.
			// Data held solely by degraded or unreachable copies keeps the
			// mark; a later pass repairs once a clean source is available.
			if !hasData {
				delete(cl.degraded, k)
			}
			continue
		}
		data := src.rangeCopy(k.Range)
		cl.net.reply(src.id, int64(len(data)))
		tgt, herr := cl.net.hop(src.id, k.Node, int64(len(data)))
		if herr != nil {
			continue
		}
		tgt.ApplyRange(k.Range, data)
		want, _ := src.HashRange(k.Range)
		got, ok := tgt.HashRange(k.Range)
		if !ok || got != want {
			return healed, fmt.Errorf("cluster: repair of range %d on %s verified mismatched", k.Range, k.Node)
		}
		delete(cl.degraded, k)
		healed++
		cl.stats.Repaired++
	}
	return healed, nil
}
