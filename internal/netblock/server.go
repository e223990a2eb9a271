package netblock

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// Backend is the storage a Server exports. The flat in-memory volume
// (NewServer) is the simplest implementation; cmd/netblockd can instead
// serve a sharded engine volume. Implementations must be safe for
// concurrent use: the server calls them from one goroutine per connection.
//
// ReadAt and WriteAt must not retain p after returning: p is the
// connection's payload buffer, and the next frame overwrites it.
type Backend interface {
	// ReadAt fills all of p from [off, off+len(p)). The range is validated
	// by the server before the call.
	ReadAt(p []byte, off int64) error
	// WriteAt stores p at [off, off+len(p)).
	WriteAt(p []byte, off int64) error
	// Trim zeroes (discards) [off, off+n).
	Trim(off, n int64) error
	// Flush makes acknowledged writes durable (a barrier for in-memory
	// backends).
	Flush() error
	// Size reports the volume size in bytes.
	Size() int64
}

// memBackend is the default flat in-memory volume behind one RWMutex.
type memBackend struct {
	mu   sync.RWMutex
	data []byte
}

func (b *memBackend) ReadAt(p []byte, off int64) error {
	b.mu.RLock()
	copy(p, b.data[off:off+int64(len(p))])
	b.mu.RUnlock()
	return nil
}

func (b *memBackend) WriteAt(p []byte, off int64) error {
	b.mu.Lock()
	copy(b.data[off:off+int64(len(p))], p)
	b.mu.Unlock()
	return nil
}

func (b *memBackend) Trim(off, n int64) error {
	b.mu.Lock()
	zero(b.data[off : off+n])
	b.mu.Unlock()
	return nil
}

func (b *memBackend) Flush() error { return nil }

func (b *memBackend) Size() int64 { return int64(len(b.data)) }

// Server exports one volume to any number of concurrent clients.
type Server struct {
	// IdleTimeout, when positive, bounds how long a connection may sit
	// between requests, and how long one response write may take, before
	// the server drops it: each wait and each write gets at least
	// IdleTimeout and at most 9/8 of it (see rearm). Without it a hung or
	// vanished client pins its goroutine forever and blocks Close. Set
	// before Listen.
	IdleTimeout time.Duration
	// DrainGrace is how long Close lets in-flight requests finish before
	// interrupting their connections. Zero interrupts immediately. Set
	// before Listen.
	DrainGrace time.Duration

	backend Backend

	// epoch is the ring epoch the server advertises in ping responses —
	// the cluster layer's routing-table version. Standalone servers leave
	// it zero.
	epoch atomic.Uint64

	// drainFlag marks a planned shutdown announced by BeginDrain: ping
	// responses advertise it and SetEpoch refuses updates, while the
	// listener keeps serving so supervisors and clients observe the
	// handoff before the process exits.
	drainFlag atomic.Bool

	// ops tallies per-op counts, errors, and wall-clock service latency,
	// indexed by op code. The failure detector reads these through OpStats;
	// the array is sized one past the largest op so hostile codes still
	// land in a bucket (the zero slot).
	ops [opPing + 1]opCounter

	lis      net.Listener
	wg       sync.WaitGroup
	shutdown chan struct{} // closed once, by Close; never sent on
	once     sync.Once

	cmu   sync.Mutex
	conns map[net.Conn]struct{}

	emu       sync.Mutex
	listenErr error // terminal accept-loop failure, surfaced by Close
}

// MemBackend returns the flat in-memory volume NewServer serves, for
// callers that wrap it — the cluster fleet's chain backend interposes on
// this before handing it to NewServerWith.
func MemBackend(size int64) (Backend, error) {
	if size <= 0 {
		return nil, fmt.Errorf("netblock: volume size %d must be positive", size)
	}
	return &memBackend{data: make([]byte, size)}, nil
}

// NewServer creates a server exporting a zeroed in-memory volume of size
// bytes.
func NewServer(size int64) (*Server, error) {
	b, err := MemBackend(size)
	if err != nil {
		return nil, err
	}
	return NewServerWith(b)
}

// NewServerWith creates a server exporting an arbitrary backend.
func NewServerWith(b Backend) (*Server, error) {
	if b == nil || b.Size() <= 0 {
		return nil, errors.New("netblock: backend required with positive size")
	}
	return &Server{
		backend:  b,
		shutdown: make(chan struct{}),
		conns:    make(map[net.Conn]struct{}),
	}, nil
}

// Size reports the exported volume size.
func (s *Server) Size() int64 { return s.backend.Size() }

// SetEpoch sets the ring epoch advertised in ping responses. The cluster
// layer bumps it on membership changes; a client holding a routing table
// older than the epoch it observes refetches before retrying. A draining
// server (BeginDrain or Close) drops the update: it has deregistered from
// the control plane, and accepting a new epoch mid-drain would advertise a
// placement it will never serve.
func (s *Server) SetEpoch(e uint64) {
	if s.Draining() {
		return
	}
	s.epoch.Store(e)
}

// BeginDrain announces a planned shutdown without stopping service: ping
// responses start advertising the drain flag and SetEpoch refuses new
// epochs, but connections keep being accepted and served. A supervisor
// that observes the flag reclassifies the member as departing instead of
// fail-stop, so a planned restart never triggers quarantine and repair.
// Close completes the shutdown; BeginDrain is idempotent and optional.
func (s *Server) BeginDrain() { s.drainFlag.Store(true) }

// Draining reports whether the server has announced a planned shutdown
// (BeginDrain) or is already closing (Close).
func (s *Server) Draining() bool { return s.drainFlag.Load() || s.draining() }

// opCounter is one op's running tally. Fields are atomics so per-connection
// goroutines record without a shared lock; Max uses a CAS loop.
type opCounter struct {
	count   atomic.Int64
	errors  atomic.Int64
	totalNs atomic.Int64
	maxNs   atomic.Int64
}

func (c *opCounter) observe(d time.Duration, failed bool) {
	c.count.Add(1)
	if failed {
		c.errors.Add(1)
	}
	ns := d.Nanoseconds()
	c.totalNs.Add(ns)
	for {
		cur := c.maxNs.Load()
		if ns <= cur || c.maxNs.CompareAndSwap(cur, ns) {
			return
		}
	}
}

// OpStats is one op's cumulative service record: how many requests, how
// many were refused (statusErr or statusStale), and the wall-clock time
// spent in the backend — the raw material a failure detector scores
// fail-stop (errors) and fail-slow (latency) from.
type OpStats struct {
	Op     string
	Count  int64
	Errors int64
	Total  time.Duration
	Max    time.Duration
}

// opNames maps op codes to their stats labels; the zero slot collects
// unknown codes, the retired op 5 among them.
var opNames = [opPing + 1]string{"unknown", "read", "write", "trim", "flush", "", "ping"}

// OpStats reports the per-op counters for every op observed so far, in
// fixed op-code order. Safe to call concurrently with serving.
func (s *Server) OpStats() []OpStats {
	var out []OpStats
	for op := range s.ops {
		c := &s.ops[op]
		n := c.count.Load()
		if n == 0 {
			continue
		}
		out = append(out, OpStats{
			Op:     opNames[op],
			Count:  n,
			Errors: c.errors.Load(),
			Total:  time.Duration(c.totalNs.Load()),
			Max:    time.Duration(c.maxNs.Load()),
		})
	}
	return out
}

// Listen starts accepting connections on addr (e.g. "127.0.0.1:0") and
// returns the bound address. Serving happens on background goroutines until
// Close.
func (s *Server) Listen(addr string) (net.Addr, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s.lis = lis
	s.wg.Add(1)
	go s.acceptLoop(lis)
	return lis.Addr(), nil
}

// acceptBackoffMax caps the retry delay after temporary Accept failures.
const acceptBackoffMax = time.Second

// acceptLoop accepts until shutdown. Temporary failures (file-descriptor
// exhaustion, aborted handshakes) are retried with exponential backoff
// capped at acceptBackoffMax; any other failure is terminal and recorded
// for Close to report — a silently dead listener must not look healthy.
func (s *Server) acceptLoop(lis net.Listener) {
	defer s.wg.Done()
	var delay time.Duration
	// A successful Accept is productive work, not a retry: this loop is
	// meant to run for the server's lifetime. The failure paths back off
	// via time.After and watch the shutdown channel.
	for {
		conn, err := lis.Accept()
		if err != nil {
			if s.draining() {
				return
			}
			if temporaryAcceptError(err) {
				if delay == 0 {
					delay = 5 * time.Millisecond
				} else {
					delay *= 2
					if delay > acceptBackoffMax {
						delay = acceptBackoffMax
					}
				}
				select {
				case <-time.After(delay):
					continue
				case <-s.shutdown:
					return
				}
			}
			s.emu.Lock()
			s.listenErr = fmt.Errorf("netblock: accept loop terminated: %w", err)
			s.emu.Unlock()
			return
		}
		delay = 0
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer conn.Close()
			s.track(conn)
			defer s.untrack(conn)
			_ = s.ServeConn(conn)
		}()
	}
}

// temporaryAcceptError reports whether an Accept failure is worth retrying:
// resource exhaustion and connection aborts pass transiently; anything else
// (listener closed, fatal socket state) is terminal.
func temporaryAcceptError(err error) bool {
	if errors.Is(err, syscall.EMFILE) || errors.Is(err, syscall.ENFILE) ||
		errors.Is(err, syscall.ECONNABORTED) || errors.Is(err, syscall.ECONNRESET) ||
		errors.Is(err, syscall.EINTR) {
		return true
	}
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

func (s *Server) track(conn net.Conn) {
	s.cmu.Lock()
	s.conns[conn] = struct{}{}
	s.cmu.Unlock()
}

func (s *Server) untrack(conn net.Conn) {
	s.cmu.Lock()
	delete(s.conns, conn)
	s.cmu.Unlock()
}

// Close stops the listener and waits for in-flight connections to drain: a
// connection mid-request gets DrainGrace to finish; one idle between
// requests is interrupted at the same deadline and exits cleanly. If the
// accept loop died earlier on a non-temporary error, Close reports it.
func (s *Server) Close() error {
	var err error
	s.once.Do(func() {
		close(s.shutdown)
		if s.lis != nil {
			err = s.lis.Close()
		}
		deadline := time.Now().Add(s.DrainGrace)
		s.cmu.Lock()
		for c := range s.conns {
			_ = c.SetReadDeadline(deadline)
		}
		s.cmu.Unlock()
	})
	s.wg.Wait()
	s.emu.Lock()
	defer s.emu.Unlock()
	return errors.Join(err, s.listenErr)
}

// deadliner is the deadline surface of net.Conn; ServeConn applies
// IdleTimeout, and the client its Timeout, only to connections that expose
// it.
type deadliner interface {
	SetDeadline(t time.Time) error
}

// rearm keeps a connection's deadline at least d ahead of now, given the
// deadline armed last: when less than d is left, it arms now+d+d/8, read
// and write together (equal deadlines share one poller timer). Whatever
// waits on the connection next gets at least d, a dead peer is detected
// within 9/8·d, and a busy connection pays one deadline update per d/8 of
// traffic instead of one or two per frame.
func rearm(dc deadliner, armed time.Time, d time.Duration) time.Time {
	now := time.Now()
	if armed.Sub(now) >= d {
		return armed
	}
	armed = now.Add(d + d/8)
	_ = dc.SetDeadline(armed)
	return armed
}

// serverConn is the framing state of one served connection, allocated once
// and reused for every frame.
type serverConn struct {
	w   io.Writer
	br  *bufio.Reader
	fw  frameWriter
	req request
	buf payloadBuf
}

// ServeConn handles one client connection until EOF or error. It can be
// used directly (e.g. over net.Pipe in tests) without Listen. If conn
// supports deadlines and IdleTimeout is set, each request must arrive — and
// each response must be written — within IdleTimeout (to 9/8 of it). During
// shutdown a deadline interruption is a clean exit, not an error.
func (s *Server) ServeConn(conn io.ReadWriter) error {
	dc, _ := conn.(deadliner)
	if s.IdleTimeout <= 0 {
		dc = nil
	}
	var armed time.Time
	c := new(serverConn)
	c.w, c.br = conn, newReader(conn)
	for {
		if dc != nil {
			armed = rearm(dc, armed, s.IdleTimeout)
		}
		// Checked after the re-arm: Close marks the drain before it sets
		// the drain deadline, so either that deadline lands after this
		// re-arm or the loop sees the drain here.
		if s.draining() {
			return nil
		}
		if err := readRequest(c.br, &c.req, &c.buf); err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) || s.draining() {
				return nil
			}
			return err
		}
		if dc != nil {
			armed = rearm(dc, armed, s.IdleTimeout)
		}
		if err := s.handle(c); err != nil {
			if s.draining() {
				return nil
			}
			return err
		}
	}
}

func (s *Server) draining() bool {
	select {
	case <-s.shutdown:
		return true
	default:
		return false
	}
}

// handle times and executes the connection's decoded request, records its
// op counter, and writes the response.
func (s *Server) handle(c *serverConn) error {
	start := time.Now()
	status, payload := s.execute(&c.req, &c.buf)
	idx := int(c.req.op)
	if idx >= len(s.ops) || opNames[idx] == "" {
		idx = 0 // hostile/unknown op codes share the zero bucket
	}
	s.ops[idx].observe(time.Since(start), status != statusOK)
	return c.fw.writeResponse(c.w, status, payload)
}

// execute runs one request against the backend. Range validation happens
// entirely in uint64 space: off and length are client-controlled, and
// converting to int64 first lets an offset above 2^63 go negative, pass an
// int64 comparison, and panic the slice expression — one hostile frame
// killing the whole process. `off > size || length > size-off` cannot
// overflow (off <= size holds before the subtraction) and rejects every
// out-of-range request, including off+length wrapping uint64. A read's
// payload is space taken from buf, valid until the connection's next frame.
func (s *Server) execute(req *request, buf *payloadBuf) (status uint8, payload []byte) {
	if req.op != opFlush && req.op != opPing {
		size := uint64(s.backend.Size())
		if req.off > size || uint64(req.length) > size-req.off {
			return statusErr, []byte("out of range")
		}
	}
	switch req.op {
	case opRead:
		p := buf.take(int(req.length))
		if err := s.backend.ReadAt(p, int64(req.off)); err != nil {
			return refusal(err)
		}
		return statusOK, p
	case opWrite:
		if err := s.backend.WriteAt(req.payload, int64(req.off)); err != nil {
			return refusal(err)
		}
		return statusOK, nil
	case opTrim:
		if err := s.backend.Trim(int64(req.off), int64(req.length)); err != nil {
			return refusal(err)
		}
		return statusOK, nil
	case opFlush:
		if err := s.backend.Flush(); err != nil {
			return refusal(err)
		}
		return statusOK, nil
	case opPing:
		// Health/handshake: size, ring epoch, drain state. It ignores the
		// offset and length fields entirely, so a probe can never be
		// rejected for range reasons.
		var buf [17]byte
		binary.BigEndian.PutUint64(buf[0:], uint64(s.backend.Size()))
		binary.BigEndian.PutUint64(buf[8:], s.epoch.Load())
		if s.Draining() {
			buf[16] |= pingDraining
		}
		return statusOK, buf[:]
	default:
		return statusErr, []byte("unknown op")
	}
}

// refusal answers a failed backend call: statusStale for a refusal that
// wraps ErrStaleEpoch, so the client need not parse the text, and statusErr
// for any other failure.
func refusal(err error) (status uint8, text []byte) {
	if errors.Is(err, ErrStaleEpoch) {
		return statusStale, []byte(err.Error())
	}
	return statusErr, []byte(err.Error())
}

func zero(b []byte) {
	for i := range b {
		b[i] = 0
	}
}
