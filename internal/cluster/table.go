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
