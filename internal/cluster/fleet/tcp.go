package fleet

import (
	"time"

	"srccache/internal/cluster"
	"srccache/internal/netblock"
)

// TCP is the production transport: members are dialed with netblock over
// TCP with opts, and the clock is the host's.
func TCP(opts netblock.ClientOptions) cluster.Transport { return tcpTransport{opts} }

type tcpTransport struct{ opts netblock.ClientOptions }

// Dial connects to m. Every failure is a plain transport error, never
// cluster.ErrDown: a refused connection may be a partition's reset, with
// the member up and serving others, so a write that skips it reports the
// miss.
func (t tcpTransport) Dial(m cluster.Member) (cluster.Peer, error) {
	c, err := netblock.DialOptions(m.Addr, t.opts)
	if err != nil {
		return nil, err
	}
	return tcpPeer{c}, nil
}

func (tcpTransport) Now() time.Time { return time.Now() } //srclint:allow determinism the wall-clock transport

func (tcpTransport) Sleep(d time.Duration) { time.Sleep(d) } //srclint:allow determinism the wall-clock transport

// tcpPeer adapts netblock.Client's io.ReaderAt/WriterAt shapes to Peer.
type tcpPeer struct{ *netblock.Client }

func (p tcpPeer) ReadAt(b []byte, off int64) error {
	_, err := p.Client.ReadAt(b, off)
	return err
}

func (p tcpPeer) WriteAt(b []byte, off int64) error {
	_, err := p.Client.WriteAt(b, off)
	return err
}
