// Package cluster holds what the replicated layer's parts share: the
// consistent-hash ring that maps fixed-size LBA ranges of one logical
// volume onto N cache nodes with R-way chained replication, the
// epoch-versioned routing table, the failure detector, the supervisor's
// journal, and the Transport seam — with Net, its virtual-time
// implementation over seeded links and partitions. The protocol itself is
// in the fleet (data path) and supervisor (control plane) subpackages; the
// churn subpackage runs it under seeded chaos. It is the paper's "node loss
// = column loss writ large" story one level above the SSD array.
//
// The package is deterministic and wallclock-free, so a virtual-time run is
// a pure function of its seed.
package cluster

import (
	"fmt"
	"hash/fnv"
	"slices"
	"sort"
)

// Member is one cache node in the ring: a stable identity plus the address
// the TCP transport dials (the virtual one needs only the ID).
type Member struct {
	ID   string
	Addr string
}

// vnodes is how many points each member contributes to the hash ring.
// More points smooth the range distribution; 64 keeps every member owning
// a reasonable share for small fleets without bloating the table.
const vnodes = 64

// MaxRanges bounds a ring's range count, so a damaged geometry is refused
// before its chain table is allocated: 1 Mi ranges is a 1 TiB volume at
// netblockd's default 1 MiB ranges, and a 48 MiB table at R = 3.
const MaxRanges = 1 << 20

// point is one position on the hash circle.
type point struct {
	hash uint64
	id   string
}

// Ring places ranges onto members: range r is owned by the first Replicas
// distinct members clockwise of hash(r). A Ring is immutable; membership
// changes build a new one via WithJoin/WithLeave so the control plane can
// hold the old and new placement side by side during a rebalance.
type Ring struct {
	Replicas   int
	Ranges     int
	RangeBytes int64

	members []Member // sorted by ID
	width   int      // chain length: min(Replicas, len(members))
	chains  []string // range r's chain is chains[r*width : (r+1)*width]
}

// NewRing builds a ring and places every range once, so a lookup is a
// slice of the table: 16 B per replica per range, for at most MaxRanges
// ranges. Replicas is clamped to the member count, so a fleet smaller than
// R still serves (with reduced redundancy) rather than failing.
func NewRing(replicas, ranges int, rangeBytes int64, members []Member) (*Ring, error) {
	if replicas < 1 {
		return nil, fmt.Errorf("cluster: replicas %d < 1", replicas)
	}
	if ranges < 1 || ranges > MaxRanges {
		return nil, fmt.Errorf("cluster: ranges %d outside [1, %d]", ranges, MaxRanges)
	}
	if rangeBytes < 1 {
		return nil, fmt.Errorf("cluster: range bytes %d < 1", rangeBytes)
	}
	if len(members) == 0 {
		return nil, fmt.Errorf("cluster: empty member set")
	}
	r := &Ring{Replicas: replicas, Ranges: ranges, RangeBytes: rangeBytes}
	seen := make(map[string]bool, len(members))
	for _, m := range members {
		if m.ID == "" {
			return nil, fmt.Errorf("cluster: member with empty ID")
		}
		if seen[m.ID] {
			return nil, fmt.Errorf("cluster: duplicate member %q", m.ID)
		}
		seen[m.ID] = true
		r.members = append(r.members, m)
	}
	sort.Slice(r.members, func(i, j int) bool { return r.members[i].ID < r.members[j].ID })
	var points []point
	for _, m := range r.members {
		for v := 0; v < vnodes; v++ {
			points = append(points, point{hash: hash64(fmt.Sprintf("%s#%d", m.ID, v)), id: m.ID})
		}
	}
	// Ties broken by ID so the circle order is a pure function of the
	// member set, independent of insertion order.
	sort.Slice(points, func(i, j int) bool {
		if points[i].hash != points[j].hash {
			return points[i].hash < points[j].hash
		}
		return points[i].id < points[j].id
	})
	r.place(points)
	return r, nil
}

// place fills the chain table: range rng's chain is the first width
// distinct members clockwise of hash("range:rng") on the sorted points.
func (r *Ring) place(points []point) {
	r.width = min(r.Replicas, len(r.members))
	r.chains = make([]string, 0, r.Ranges*r.width)
	for rng := 0; rng < r.Ranges; rng++ {
		key := hash64(fmt.Sprintf("range:%d", rng))
		i := sort.Search(len(points), func(i int) bool { return points[i].hash >= key })
		for start := len(r.chains); len(r.chains) < start+r.width; i++ {
			if id := points[i%len(points)].id; !slices.Contains(r.chains[start:], id) {
				r.chains = append(r.chains, id)
			}
		}
	}
}

// hash64 hashes a key onto the circle. FNV-1a alone has poor avalanche on
// short keys differing only in a trailing digit ("n0#1" vs "n0#2" land
// adjacent), which clusters a member's vnodes instead of scattering them —
// the murmur-style finalizer restores uniformity.
func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	x := h.Sum64()
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// Size reports the logical volume size the ring serves.
func (r *Ring) Size() int64 { return int64(r.Ranges) * r.RangeBytes }

// RangeOf maps a byte offset to its placement range.
func (r *Ring) RangeOf(off int64) int { return int(off / r.RangeBytes) }

// Members returns the member set sorted by ID.
func (r *Ring) Members() []Member { return append([]Member(nil), r.members...) }

// Member looks a member up by ID.
func (r *Ring) Member(id string) (Member, bool) {
	i := sort.Search(len(r.members), func(i int) bool { return r.members[i].ID >= id })
	if i < len(r.members) && r.members[i].ID == id {
		return r.members[i], true
	}
	return Member{}, false
}

// Owners returns range rng's replica chain, rng in [0, Ranges): the first
// min(Replicas, N) distinct members clockwise of the range's hash point.
// The order is the chain order — index 0 is the head a client addresses,
// the last entry the tail whose apply completes the chain. The slice is the
// ring's own table: callers must not modify it (an append copies).
func (r *Ring) Owners(rng int) []string {
	lo, hi := rng*r.width, (rng+1)*r.width
	return r.chains[lo:hi:hi]
}

// OwnedBy reports whether id owns range rng.
func (r *Ring) OwnedBy(rng int, id string) bool { return slices.Contains(r.Owners(rng), id) }

// WithJoin returns a new ring with m added.
func (r *Ring) WithJoin(m Member) (*Ring, error) {
	return NewRing(r.Replicas, r.Ranges, r.RangeBytes, append(r.Members(), m))
}

// WithLeave returns a new ring with id removed.
func (r *Ring) WithLeave(id string) (*Ring, error) {
	var rest []Member
	for _, m := range r.members {
		if m.ID != id {
			rest = append(rest, m)
		}
	}
	if len(rest) == len(r.members) {
		return nil, fmt.Errorf("cluster: member %q not in ring", id)
	}
	return NewRing(r.Replicas, r.Ranges, r.RangeBytes, rest)
}

// Move is one range transfer a rebalance must perform: Target is a new
// owner of Range that the old placement did not replicate to. The source
// is chosen at stream time from the old owners still healthy.
type Move struct {
	Range  int
	Target string
}

// Moves computes the range transfers from old's placement to new's, in
// deterministic (range, target) order.
func Moves(old, new *Ring) []Move {
	var moves []Move
	for rng := 0; rng < new.Ranges; rng++ {
		for _, id := range new.Owners(rng) {
			if !old.OwnedBy(rng, id) {
				moves = append(moves, Move{Range: rng, Target: id})
			}
		}
	}
	return moves
}
