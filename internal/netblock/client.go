package netblock

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// ErrStaleEpoch reports that the server refused a request because it was
// routed with an outdated placement table: the server does not own the
// requested range. The caller must refetch its routing table and retry
// against the current owner — see the placement fence in DESIGN.md §12.
// Reads, writes, and trims can all surface it: serving (or applying) under
// rules the routing no longer grants would strand data on a non-owner. A
// backend refuses with an error wrapping it; the server answers statusStale.
var ErrStaleEpoch = errors.New("netblock: stale routing epoch")

// ClientOptions bound how long the client waits on its peer. The zero
// value blocks forever on a dead peer. Each call makes one attempt: a
// transport error retires the connection and fails the call, and the next
// call on a dialed client redials. Failover and retry are the caller's —
// the cluster fleet's, which tries a range's owners in order.
type ClientOptions struct {
	// DialTimeout bounds the TCP connect (0 = no bound).
	DialTimeout time.Duration
	// Timeout bounds each request round trip (0 = no bound): the request
	// write and the response read together get at least Timeout and at
	// most 9/8 of it, so a dead peer is detected within 9/8·Timeout. The
	// deadline is re-armed only when less than Timeout of it is left, one
	// update per Timeout/8 of traffic (see rearm). Applied only to
	// connections that expose deadlines (net.Conn, net.Pipe).
	Timeout time.Duration
}

// Client is a synchronous remote block device over one connection. Methods
// are safe for concurrent use (requests serialize on the connection).
type Client struct {
	mu      sync.Mutex
	conn    io.ReadWriteCloser
	br      *bufio.Reader // over conn; replaced with it (setConn)
	dc      deadliner     // conn's deadlines, nil without them
	armed   time.Time     // the deadline last set on conn
	retired bool          // a transport error closed conn
	fw      frameWriter
	size    int64
	opts    ClientOptions
	addr    string // non-empty when the client can reconnect
}

// Dial connects to a server and fetches the volume size.
func Dial(addr string) (*Client, error) {
	return DialOptions(addr, ClientOptions{})
}

// DialOptions is Dial with explicit timeouts. It dials and fetches the
// size once; either failing fails the call.
func DialOptions(addr string, o ClientOptions) (*Client, error) {
	c := &Client{opts: o, addr: addr}
	conn, err := c.dial()
	if err != nil {
		return nil, err
	}
	return c.start(conn)
}

// NewClient wraps an established connection (e.g. one side of net.Pipe).
// It cannot redial: after a transport error every call fails.
func NewClient(conn io.ReadWriteCloser) (*Client, error) {
	return new(Client).start(conn)
}

// start installs conn and fetches the volume size over it.
func (c *Client) start(conn io.ReadWriteCloser) (*Client, error) {
	c.setConn(conn)
	var size [8]byte
	if err := c.attempt(opSize, 0, 0, nil, size[:]); err != nil {
		conn.Close()
		return nil, err
	}
	c.size = int64(binary.BigEndian.Uint64(size[:]))
	return c, nil
}

// setConn installs a connection together with a fresh reader over it: bytes
// buffered from the previous connection are the tail of a dead stream, and
// a frame parsed from them would be garbage.
func (c *Client) setConn(conn io.ReadWriteCloser) {
	c.conn, c.br = conn, newReader(conn)
	c.dc, _ = conn.(deadliner)
	c.armed, c.retired = time.Time{}, false
}

// Size reports the remote volume size in bytes.
func (c *Client) Size() int64 { return c.size }

// Close closes the connection; one a transport error already closed is not
// an error.
func (c *Client) Close() error {
	if err := c.conn.Close(); !errors.Is(err, net.ErrClosed) {
		return err
	}
	return nil
}

func (c *Client) dial() (net.Conn, error) {
	if c.opts.DialTimeout > 0 {
		return net.DialTimeout("tcp", c.addr, c.opts.DialTimeout)
	}
	return net.Dial("tcp", c.addr)
}

// roundTrip performs one operation in one attempt. A dialable client first
// replaces a connection that a transport error retired in an earlier call,
// so a dead peer costs one dial per call and the failure goes straight back
// to the caller. The response payload lands in dst (see attempt).
func (c *Client) roundTrip(op uint8, off uint64, length uint32, payload, dst []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.redial(); err != nil {
		return err
	}
	return c.attempt(op, off, length, payload, dst)
}

// redial replaces a connection that a transport error retired, when the
// client has an address to dial; a wrapped client keeps failing on it.
func (c *Client) redial() error {
	if !c.retired || c.addr == "" {
		return nil
	}
	conn, err := c.dial()
	if err == nil {
		c.setConn(conn)
	}
	return err
}

// attempt sends one request and reads its response on the current
// connection, under the Timeout deadline when the transport supports it.
// The payload of an OK response is decoded straight into dst and must be
// exactly len(dst) bytes — what the op is defined to answer with. Any
// transport error retires the connection: a request that timed out may
// still be answered, and that late reply must not answer the next request;
// whatever follows a malformed frame cannot be told from payload either.
// Callers hold c.mu (or have exclusive access during setup).
func (c *Client) attempt(op uint8, off uint64, length uint32, payload, dst []byte) error {
	if c.dc != nil && c.opts.Timeout > 0 {
		c.armed = rearm(c.dc, c.armed, c.opts.Timeout)
	}
	if err := c.fw.writeRequest(c.conn, op, off, length, payload); err != nil {
		return c.retire(err)
	}
	status, text, err := readResponse(c.br, dst)
	if err != nil {
		return c.retire(err)
	}
	switch status {
	case statusOK:
		return nil
	case statusStale:
		// Still a remote answer, which the caller must not retry on the
		// same member, but one carrying the routing contract.
		return fmt.Errorf("%w (%w): %s", ErrStaleEpoch, ErrRemote, text)
	}
	return fmt.Errorf("%w: %s", ErrRemote, text)
}

// retire closes the connection after a transport error and returns err.
func (c *Client) retire(err error) error {
	c.conn.Close()
	c.retired = true
	return err
}

func (c *Client) check(off int64, n int) error {
	switch {
	case off < 0 || n < 0:
		return fmt.Errorf("%w: negative range", ErrProtocol)
	case n > MaxPayload:
		return fmt.Errorf("%w: transfer %d exceeds limit %d", ErrProtocol, n, MaxPayload)
	case off > c.size-int64(n): // off+n would overflow for off near MaxInt64
		return fmt.Errorf("%w: %d bytes at %d outside volume of %d", ErrRemote, n, off, c.size)
	}
	return nil
}

// ReadAt fills p from the volume at off. It implements io.ReaderAt. When
// the remote refuses the read because the caller's routing table is stale
// (a ring member that no longer owns the range), the error wraps
// ErrStaleEpoch: the caller must refetch its table and retry against the
// current owner.
func (c *Client) ReadAt(p []byte, off int64) (int, error) {
	if err := c.check(off, len(p)); err != nil {
		return 0, err
	}
	if err := c.roundTrip(opRead, uint64(off), uint32(len(p)), nil, p); err != nil {
		return 0, err
	}
	return len(p), nil
}

// WriteAt stores p at off. It implements io.WriterAt. A stale-routed
// write is refused with ErrStaleEpoch just like a read: accepting it
// would strand the bytes on a member the current chain no longer reads.
func (c *Client) WriteAt(p []byte, off int64) (int, error) {
	if err := c.check(off, len(p)); err != nil {
		return 0, err
	}
	if err := c.roundTrip(opWrite, uint64(off), uint32(len(p)), p, nil); err != nil {
		return 0, err
	}
	return len(p), nil
}

// Trim zeroes [off, off+n). Like WriteAt it is a mutation, so a stale
// route is refused with ErrStaleEpoch.
func (c *Client) Trim(off, n int64) error {
	if err := c.check(off, int(n)); err != nil {
		return err
	}
	return c.roundTrip(opTrim, uint64(off), uint32(n), nil, nil)
}

// Flush is a durability barrier.
func (c *Client) Flush() error {
	return c.roundTrip(opFlush, 0, 0, nil, nil)
}

// PingInfo is a ping response: the server's volume size, its advertised
// ring epoch, and whether it is draining for shutdown.
type PingInfo struct {
	Size     int64
	Epoch    uint64
	Draining bool
}

// Ping probes the server's health: a successful round trip proves
// liveness, and the payload carries the routing handshake (size, ring
// epoch, drain state). Failure detectors also time this call.
func (c *Client) Ping() (PingInfo, error) {
	var resp [17]byte
	if err := c.roundTrip(opPing, 0, 0, nil, resp[:]); err != nil {
		return PingInfo{}, err
	}
	return PingInfo{
		Size:     int64(binary.BigEndian.Uint64(resp[0:])),
		Epoch:    binary.BigEndian.Uint64(resp[8:]),
		Draining: resp[16]&pingDraining != 0,
	}, nil
}
