package netblock

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"strings"
	"sync"
	"time"
)

// ErrRetryBudget reports that an operation gave up because its
// ClientOptions.RetryBudget elapsed, with retry attempts still available.
var ErrRetryBudget = errors.New("netblock: retry budget exhausted")

// StaleEpochText is the substring a server-side refusal carries across the
// wire to signal a stale-epoch condition; attempt maps refusal payloads
// containing it to ErrStaleEpoch.
const StaleEpochText = "stale routing epoch"

// ErrStaleEpoch reports that the server refused a request because it was
// routed with an outdated placement table: the server does not own the
// requested range. The caller must refetch its routing table and retry
// against the current owner — see the placement fence in DESIGN.md §12.
// Reads, writes, and trims can all surface it: serving (or applying) under
// rules the routing no longer grants would strand data on a non-owner.
var ErrStaleEpoch = errors.New("netblock: " + StaleEpochText)

// ClientOptions tune the client's failure behavior. The zero value keeps
// the original semantics: block forever on a dead peer, fail on the first
// error.
type ClientOptions struct {
	// DialTimeout bounds the TCP connect (0 = no bound).
	DialTimeout time.Duration
	// Timeout bounds each request round trip: the request write and the
	// response read each get this deadline (0 = no bound). Applied only to
	// connections that expose deadlines (net.Conn, net.Pipe).
	Timeout time.Duration
	// RetryLimit is how many times a transient failure — a timeout, a
	// dropped connection — is retried after reconnecting. Remote errors
	// (the server answered) are never retried. Dial-created clients
	// reconnect between attempts; wrapped connections (NewClient) cannot,
	// so their ops fail on the first transport error regardless.
	RetryLimit int
	// RetryBudget bounds the total elapsed time one operation may spend
	// across all its attempts (0 = unbounded). RetryLimit alone bounds the
	// attempt count, not the wall clock: with a slow Timeout each retry
	// can burn the full deadline and a modest limit stalls the caller for
	// minutes. When the budget is exhausted the operation fails with
	// ErrRetryBudget wrapping the last transport error, instead of
	// starting another attempt. Measured via Now, so tests pairing Now
	// with Sleep stay wallclock-free.
	RetryBudget time.Duration
	// RetryDelay is the backoff base: attempt i sleeps RetryDelay<<i plus
	// seeded jitter. Defaults to 10ms when RetryLimit is set.
	RetryDelay time.Duration
	// Seed makes the retry jitter deterministic for tests.
	Seed int64
	// Sleep replaces time.Sleep for the backoff, keeping tests
	// wallclock-free. Nil means time.Sleep.
	Sleep func(time.Duration)
	// Now replaces time.Now for the RetryBudget accounting; tests inject a
	// fake clock advanced by their Sleep. Nil means time.Now.
	Now func() time.Time
}

func (o ClientOptions) withDefaults() ClientOptions {
	if o.RetryLimit > 0 && o.RetryDelay <= 0 {
		o.RetryDelay = 10 * time.Millisecond
	}
	if o.Sleep == nil {
		o.Sleep = time.Sleep
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	return o
}

// Client is a synchronous remote block device over one connection. Methods
// are safe for concurrent use (requests serialize on the connection).
type Client struct {
	mu   sync.Mutex
	conn io.ReadWriteCloser
	br   *bufio.Reader // over conn; replaced with it (setConn)
	fw   frameWriter
	size int64
	opts ClientOptions
	addr string // non-empty when the client can reconnect
	rng  *rand.Rand
}

// Dial connects to a server and fetches the volume size.
func Dial(addr string) (*Client, error) {
	return DialOptions(addr, ClientOptions{})
}

// DialOptions is Dial with explicit timeout and retry behavior. The
// initial connect (and its size handshake) participates in the retry
// budget like any other operation.
func DialOptions(addr string, o ClientOptions) (*Client, error) {
	c := &Client{opts: o.withDefaults(), addr: addr}
	c.rng = rand.New(rand.NewSource(c.opts.Seed))
	start := c.opts.Now()
	for attempt := 0; ; attempt++ {
		conn, err := c.dial()
		if err == nil {
			c.setConn(conn)
			if err = c.handshake(); err == nil {
				return c, nil
			}
			conn.Close()
			if !transient(err) {
				return nil, err
			}
		}
		if attempt >= c.opts.RetryLimit {
			return nil, err
		}
		if berr := c.overBudget(start, err); berr != nil {
			return nil, berr
		}
		c.backoff(attempt)
	}
}

// NewClient wraps an established connection (e.g. one side of net.Pipe).
func NewClient(conn io.ReadWriteCloser) (*Client, error) {
	c := &Client{opts: ClientOptions{}.withDefaults()}
	c.rng = rand.New(rand.NewSource(0))
	c.setConn(conn)
	if err := c.handshake(); err != nil {
		conn.Close()
		return nil, err
	}
	return c, nil
}

// setConn installs a connection together with a fresh reader over it: bytes
// buffered from the previous connection are the tail of a dead stream, and
// a frame parsed from them would be garbage.
func (c *Client) setConn(conn io.ReadWriteCloser) {
	c.conn, c.br = conn, newReader(conn)
}

// handshake fetches the volume size on a new connection.
func (c *Client) handshake() error {
	var size [8]byte
	if err := c.attempt(opSize, 0, 0, nil, size[:]); err != nil {
		return err
	}
	c.size = int64(binary.BigEndian.Uint64(size[:]))
	return nil
}

// Size reports the remote volume size in bytes.
func (c *Client) Size() int64 { return c.size }

// Close closes the connection.
func (c *Client) Close() error { return c.conn.Close() }

func (c *Client) dial() (net.Conn, error) {
	if c.opts.DialTimeout > 0 {
		return net.DialTimeout("tcp", c.addr, c.opts.DialTimeout)
	}
	return net.Dial("tcp", c.addr)
}

// transient reports whether an error is worth a reconnect-and-retry: any
// transport-level failure qualifies; a remote error means the server
// received and answered the request, so retrying would repeat the refusal.
func transient(err error) bool {
	return err != nil && !errors.Is(err, ErrRemote)
}

// overBudget enforces RetryBudget: called before committing to another
// attempt, it returns ErrRetryBudget (wrapping the attempt's error) once
// the elapsed time since start has consumed the budget.
func (c *Client) overBudget(start time.Time, lastErr error) error {
	if c.opts.RetryBudget <= 0 {
		return nil
	}
	if elapsed := c.opts.Now().Sub(start); elapsed >= c.opts.RetryBudget {
		return fmt.Errorf("%w (%v elapsed of %v): %w",
			ErrRetryBudget, elapsed, c.opts.RetryBudget, lastErr)
	}
	return nil
}

// backoff sleeps RetryDelay<<attempt plus up to 50% seeded jitter.
func (c *Client) backoff(attempt int) {
	d := c.opts.RetryDelay << attempt
	if d <= 0 {
		return
	}
	d += time.Duration(c.rng.Int63n(int64(d)/2 + 1))
	c.opts.Sleep(d)
}

// roundTrip performs one operation, reconnecting and retrying transient
// transport failures up to RetryLimit times. All protocol operations are
// idempotent (same bytes at the same offset; barrier; size), so retrying
// after an ambiguous failure is safe. The response payload lands in dst
// (see attempt).
func (c *Client) roundTrip(op uint8, off uint64, length uint32, payload, dst []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	start := c.opts.Now()
	for attempt := 0; ; attempt++ {
		err := c.attempt(op, off, length, payload, dst)
		if err == nil {
			return nil
		}
		if !transient(err) || c.addr == "" || attempt >= c.opts.RetryLimit {
			return err
		}
		if berr := c.overBudget(start, err); berr != nil {
			return berr
		}
		c.backoff(attempt)
		conn, derr := c.dial()
		if derr != nil {
			return fmt.Errorf("reconnect after %v: %w", err, derr)
		}
		c.conn.Close()
		c.setConn(conn)
	}
}

// attempt sends one request and reads its response on the current
// connection, applying the per-request deadlines when the transport
// supports them. The payload of an OK response is decoded straight into
// dst and must be exactly len(dst) bytes — what the op is defined to
// answer with. Callers hold c.mu (or have exclusive access during setup).
func (c *Client) attempt(op uint8, off uint64, length uint32, payload, dst []byte) error {
	dc, _ := c.conn.(deadliner)
	if dc != nil && c.opts.Timeout > 0 {
		_ = dc.SetWriteDeadline(time.Now().Add(c.opts.Timeout))
	}
	if err := c.fw.writeRequest(c.conn, op, off, length, payload); err != nil {
		return err
	}
	if dc != nil && c.opts.Timeout > 0 {
		_ = dc.SetReadDeadline(time.Now().Add(c.opts.Timeout))
	}
	status, text, err := readResponse(c.br, dst)
	if err != nil {
		if errors.Is(err, ErrProtocol) {
			// Whatever follows a malformed frame cannot be told from
			// payload: the stream is done, and a retry must redial.
			c.conn.Close()
		}
		return err
	}
	if status != statusOK {
		// A stale-epoch refusal is still a remote answer (ErrRemote keeps
		// the retry logic from pointlessly repeating the refusal), but it
		// additionally carries the routing contract for callers to handle.
		if strings.Contains(string(text), StaleEpochText) {
			return fmt.Errorf("%w (%w): %s", ErrStaleEpoch, ErrRemote, text)
		}
		return fmt.Errorf("%w: %s", ErrRemote, text)
	}
	return nil
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
