package cluster

import (
	"time"

	"srccache/internal/netblock"
)

// Peer is one member as a caller sees it: the block operations of the
// netblock protocol plus its health probe. A refusal the member answered
// with wraps netblock.ErrRemote (and netblock.ErrStaleEpoch when the member
// does not own the extent); any other error is the transport's — the member
// may be dead, cut off, or slow past its deadline.
type Peer interface {
	ReadAt(p []byte, off int64) error
	WriteAt(p []byte, off int64) error
	Trim(off, n int64) error
	Flush() error
	Ping() (netblock.PingInfo, error)
	Close() error
}

// Transport is the seam under the fleet client, the chain backend and the
// supervisor: how one endpoint reaches a member, and the clock it waits
// on. fleet.TCP is the wall-clock implementation over netblock; Net's
// endpoints carry the same calls over seeded virtual links, so the churn
// harness runs the shipped protocol in virtual time.
type Transport interface {
	Dial(m Member) (Peer, error)
	Now() time.Time
	Sleep(d time.Duration)
}
