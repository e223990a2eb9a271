package cluster

// Table is the epoch-versioned routing state the supervisor journals and
// pushes to nodes. A stable table has Next == nil; during a rebalance it
// carries both placements: reads and chain forwards follow Cur, and a Next
// owner also accepts writes, so the moves can stream to it. Epochs only
// grow.
type Table struct {
	Epoch uint64
	Cur   *Ring
	Next  *Ring
}

// DegKey names one quarantined copy: node id × range.
type DegKey struct {
	Node  string
	Range int
}

// SupPhase is the supervisor's journaled lifecycle phase, named as the
// journal records it. The journal is written before the state it records
// takes effect on any node, so a supervisor restart can always tell which
// side of a transition boundary the crash landed on.
type SupPhase string

const (
	// SupStable: Cur at Epoch is the committed placement. Recovery
	// re-pushes it (idempotent) and resumes normal supervision.
	SupStable SupPhase = "stable"
	// SupTransition: a rebalance is in flight; the table carries Cur and
	// Next, and Pending lists the moves not yet streamed. Recovery resumes
	// streaming — or aborts cleanly — without violating the clean-head
	// invariant, because no node ever saw an epoch the journal does not.
	SupTransition SupPhase = "transition"
	// SupPush: a commit or abort has been decided and journaled, but its
	// epoch push may have reached only some nodes. Recovery re-pushes Cur
	// at Epoch to every node and rewrites the journal as SupStable —
	// finishing the interrupted push rather than re-deciding it. A commit's
	// push record also carries the moved ranges as Pending: recovery
	// re-quarantines each moved copy for catch-up verification, so a crash
	// between decide and push cannot skip the delta-window repair.
	SupPush SupPhase = "push"
)
