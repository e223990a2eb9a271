package netblock

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"
)

// silentListener accepts connections and never answers, simulating a hung
// peer.
func silentListener(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
		}
	}()
	return ln
}

func TestClientTimeoutOnSilentPeer(t *testing.T) {
	ln := silentListener(t)
	start := time.Now()
	_, err := DialOptions(ln.Addr().String(), ClientOptions{
		DialTimeout: time.Second,
		Timeout:     50 * time.Millisecond,
	})
	if err == nil {
		t.Fatal("handshake against a silent peer succeeded")
	}
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("err = %v, want a timeout", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("timed out only after %v", elapsed)
	}
}

func TestClientRequestTimeout(t *testing.T) {
	// A served handshake followed by silence: the per-request deadline must
	// unblock the read instead of hanging forever.
	srv, err := NewServer(4096)
	if err != nil {
		t.Fatal(err)
	}
	addr := listen(t, srv)
	cli, err := DialOptions(addr, ClientOptions{Timeout: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	srv.Close() // server gone; the next request gets no response
	_, err = cli.ReadAt(make([]byte, 1), 0)
	if err == nil {
		t.Fatal("request against a dead server succeeded")
	}
}

// delayedRead holds the next ReadAt for delay nanoseconds (set by the test,
// cleared by the read) and then signals answered, if no signal is pending.
type delayedRead struct {
	Backend
	delay    atomic.Int64
	answered chan struct{}
}

func newDelayedRead(b Backend) *delayedRead {
	return &delayedRead{Backend: b, answered: make(chan struct{}, 1)}
}

func (b *delayedRead) ReadAt(p []byte, off int64) error {
	if d := time.Duration(b.delay.Swap(0)); d > 0 {
		time.Sleep(d)
		select {
		case b.answered <- struct{}{}:
		default:
		}
	}
	return b.Backend.ReadAt(p, off)
}

// TestLateResponseNeverAnswersNextRequest: a request that timed out may
// still be answered, and on a connection kept in use that late answer would
// be read as the next request's. A transport error retires the connection:
// a dialed client redials for its next op, a wrapped one fails from then on.
func TestLateResponseNeverAnswersNextRequest(t *testing.T) {
	for _, wrapped := range []bool{false, true} {
		t.Run(fmt.Sprintf("wrapped=%v", wrapped), func(t *testing.T) {
			mem, err := MemBackend(2 * pageSize)
			if err != nil {
				t.Fatal(err)
			}
			first, second := bytes.Repeat([]byte{0xaa}, pageSize), bytes.Repeat([]byte{0xbb}, pageSize)
			_ = mem.WriteAt(first, 0)
			_ = mem.WriteAt(second, pageSize)
			b := newDelayedRead(mem)
			b.delay.Store(int64(150 * time.Millisecond))
			srv, err := NewServerWith(b)
			if err != nil {
				t.Fatal(err)
			}
			var cli *Client
			if wrapped {
				a, c := net.Pipe()
				go func() { _ = srv.ServeConn(a) }()
				t.Cleanup(func() { a.Close() })
				if cli, err = newClient(c); err == nil {
					cli.opts.Timeout = 50 * time.Millisecond
				}
			} else {
				addr := listen(t, srv)
				t.Cleanup(func() { srv.Close() })
				cli, err = DialOptions(addr, ClientOptions{Timeout: 50 * time.Millisecond})
			}
			if err != nil {
				t.Fatal(err)
			}
			defer cli.Close()
			p := make([]byte, pageSize)
			var ne net.Error
			if _, err := cli.ReadAt(p, 0); !errors.As(err, &ne) || !ne.Timeout() {
				t.Fatalf("slow read: err = %v, want a timeout", err)
			}
			<-b.answered // the late response is on its way
			_, err = cli.ReadAt(p, pageSize)
			switch {
			case wrapped && err == nil:
				t.Fatal("wrapped client served a request on the connection that timed out")
			case !wrapped && err != nil:
				t.Fatalf("next read after a timeout: %v", err)
			case !wrapped && !bytes.Equal(p, second):
				t.Fatalf("next read returned % x..., want % x...", p[:4], second[:4])
			}
		})
	}
}

// TestDeadlineWindowNeverShortChanged: deadlines are re-armed lazily, but
// never so lazily that a wait gets less than the bound. After a burst of
// fast ops longer than Timeout/8 (so re-arms were skipped), a reply delayed
// to ¾ Timeout still arrives in time. Then the client idles ¾ of the
// server's IdleTimeout right after that slow op, and sends a request whose
// reply is again delayed ¾: the server's wait and its response write each
// still get the full bound.
func TestDeadlineWindowNeverShortChanged(t *testing.T) {
	const bound = 800 * time.Millisecond
	mem, err := MemBackend(4096)
	if err != nil {
		t.Fatal(err)
	}
	b := newDelayedRead(mem)
	_, cli := startPairOpts(t, b, bound, ClientOptions{Timeout: bound})
	p := make([]byte, 512)
	for start := time.Now(); time.Since(start) < bound/2; {
		if _, err := cli.ReadAt(p, 0); err != nil {
			t.Fatalf("fast op: %v", err)
		}
	}
	b.delay.Store(int64(bound * 3 / 4))
	if _, err := cli.ReadAt(p, 0); err != nil {
		t.Fatalf("reply delayed to 3/4 of Timeout after a burst: %v", err)
	}
	time.Sleep(bound * 3 / 4)
	b.delay.Store(int64(bound * 3 / 4))
	if _, err := cli.ReadAt(p, 0); err != nil {
		t.Fatalf("slow reply to a request sent after idling 3/4 of IdleTimeout: %v", err)
	}
}

// TestClientReconnectsAfterDrop is the fail-then-redial contract: the op
// that meets a dropped connection fails, and the next op redials.
func TestClientReconnectsAfterDrop(t *testing.T) {
	srv, cli := startPair(t, 4096)
	defer srv.Close()
	if _, err := cli.WriteAt([]byte("persist"), 0); err != nil {
		t.Fatal(err)
	}
	cli.conn.Close()
	got := make([]byte, 7)
	if _, err := cli.ReadAt(got, 0); err == nil {
		t.Fatal("read on the dropped connection succeeded")
	}
	if _, err := cli.ReadAt(got, 0); err != nil {
		t.Fatalf("read after the failed op: %v", err)
	}
	if string(got) != "persist" {
		t.Fatalf("read %q after reconnect", got)
	}
}

// TestClosedClientNeverRedials: Close ends a dialed client for good. A call
// in flight when Close comes fails on the closed connection, and the calls
// after it fail with net.ErrClosed without dialing, so no connection
// outlives Close.
func TestClosedClientNeverRedials(t *testing.T) {
	var accepted atomic.Int32
	held := make(chan struct{})
	addr := scriptedPeer(t,
		func(c net.Conn) {
			accepted.Add(1)
			answerRequests(c, func(*request) ([]byte, bool) {
				close(held) // hold the read unanswered until the client hangs up
				io.Copy(io.Discard, c)
				return nil, false
			})
		},
		func(c net.Conn) {
			accepted.Add(1)
			answerRequests(c, func(req *request) ([]byte, bool) {
				return response(statusOK, make([]byte, req.length)), true
			})
		},
	)
	cli, err := DialOptions(addr.String(), ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	p := make([]byte, 8)
	inFlight := make(chan error, 1)
	go func() { _, err := cli.ReadAt(p, 0); inFlight <- err }()
	<-held
	if err := cli.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := <-inFlight; err == nil {
		t.Fatal("the read in flight at Close succeeded")
	}
	for i := 0; i < 2; i++ {
		if _, err := cli.ReadAt(p, 0); !errors.Is(err, net.ErrClosed) {
			t.Fatalf("read %d after Close: err = %v, want net.ErrClosed", i, err)
		}
	}
	if n := accepted.Load(); n != 1 {
		t.Fatalf("%d connections accepted, want the handshake's 1", n)
	}
}

func TestClientNoRetryWithoutLimit(t *testing.T) {
	srv, cli := startPair(t, 4096)
	defer srv.Close()
	cli.conn.Close()
	if _, err := cli.ReadAt(make([]byte, 1), 0); err == nil {
		t.Fatal("read on a closed connection succeeded")
	}
}

func TestWrappedClientFailsFast(t *testing.T) {
	// newClient has no address to redial: a transport error surfaces
	// immediately, and on every later op.
	srv, err := NewServer(4096)
	if err != nil {
		t.Fatal(err)
	}
	a, b := net.Pipe()
	go func() { _ = srv.ServeConn(a) }()
	cli, err := newClient(b)
	if err != nil {
		t.Fatal(err)
	}
	cli.conn.Close()
	for i := 0; i < 2; i++ {
		if _, err := cli.ReadAt(make([]byte, 1), 0); err == nil {
			t.Fatalf("read %d on a closed pipe succeeded", i)
		}
	}
}

// TestDeadPeerCostsOneDialPerOp: a client makes one attempt per call. A
// peer that answers the handshake and then hangs up on every connection
// costs each op exactly one accepted dial, and each op returns its error
// at once; a dial that fails is not repeated either. A retry loop put back
// into roundTrip or DialOptions shows up as extra dials, or never returns.
func TestDeadPeerCostsOneDialPerOp(t *testing.T) {
	// done fails the test if op does not return promptly.
	done := func(t *testing.T, what string, op func() error) error {
		t.Helper()
		res := make(chan error, 1)
		go func() { res <- op() }()
		select {
		case err := <-res:
			return err
		case <-time.After(5 * time.Second):
			t.Fatalf("%s still running after 5s", what)
			return nil
		}
	}
	t.Run("ops", func(t *testing.T) {
		var accepted atomic.Int32
		addr := scriptedPeer(t,
			func(c net.Conn) {
				answerRequests(c, func(*request) ([]byte, bool) { return nil, false })
			},
			func(net.Conn) { accepted.Add(1) },
		)
		cli, err := DialOptions(addr.String(), ClientOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer cli.Close()
		p := make([]byte, 8)
		// The first op dies on the handshake's connection; every later one
		// dials once.
		for i := 0; i < 8; i++ {
			err := done(t, fmt.Sprintf("op %d", i), func() error { _, err := cli.ReadAt(p, 0); return err })
			if err == nil || errors.Is(err, ErrRemote) {
				t.Fatalf("op %d against a dead peer: err = %v, want a transport error", i, err)
			}
			if n := accepted.Load(); n != int32(i) {
				t.Fatalf("after op %d: %d dials, want %d", i, n, i)
			}
		}
	})
	t.Run("dial", func(t *testing.T) {
		var accepted atomic.Int32
		addr := scriptedPeer(t, func(net.Conn) { accepted.Add(1) })
		err := done(t, "dial", func() error { _, err := DialOptions(addr.String(), ClientOptions{}); return err })
		if err == nil {
			t.Fatal("handshake with a peer that hangs up succeeded")
		}
		if n := accepted.Load(); n != 1 {
			t.Fatalf("DialOptions made %d connections, want 1", n)
		}
	})
	t.Run("freed port", func(t *testing.T) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addr := ln.Addr().String()
		ln.Close()
		err = done(t, "dial", func() error { _, err := DialOptions(addr, ClientOptions{DialTimeout: time.Second}); return err })
		var oe *net.OpError
		if !errors.As(err, &oe) || oe.Op != "dial" {
			t.Fatalf("dial of a freed port: err = %v, want the dial's own error", err)
		}
	})
}

// staleBackend plays the server side of the stale-epoch contract: a ring
// member that no longer owns the extent, refusing every read and write
// with ErrStaleEpoch as a ChainBackend would.
type staleBackend struct {
	Backend
	reads atomic.Int32
}

func (b *staleBackend) ReadAt(p []byte, off int64) error {
	b.reads.Add(1)
	return fmt.Errorf("backend: read [%d,%d) not owned here: %w", off, off+int64(len(p)), ErrStaleEpoch)
}

func (b *staleBackend) WriteAt(p []byte, off int64) error {
	return fmt.Errorf("backend: write [%d,%d) not owned here: %w", off, off+int64(len(p)), ErrStaleEpoch)
}

// flushBackend counts the flushes that reach it and, once fail is set,
// refuses them.
type flushBackend struct {
	Backend
	flushes atomic.Int32
	fail    atomic.Bool
}

func (b *flushBackend) Flush() error {
	b.flushes.Add(1)
	if b.fail.Load() {
		return errors.New("backend: flush failed")
	}
	return nil
}

// TestFlushReachesBackend pins the barrier across the wire: a client Flush
// is exactly one backend Flush, and a backend Flush that fails comes back
// as a remote error, never as an acknowledgement.
func TestFlushReachesBackend(t *testing.T) {
	mem, err := MemBackend(4096)
	if err != nil {
		t.Fatal(err)
	}
	fb := &flushBackend{Backend: mem}
	_, cli := startPairWith(t, fb)
	if err := cli.Flush(); err != nil {
		t.Fatal(err)
	}
	if n := fb.flushes.Load(); n != 1 {
		t.Fatalf("one client Flush reached the backend %d times, want 1", n)
	}
	fb.fail.Store(true)
	if err := cli.Flush(); !errors.Is(err, ErrRemote) {
		t.Fatalf("failed backend Flush reached the client as %v, want ErrRemote", err)
	}
	if n := fb.flushes.Load(); n != 2 {
		t.Fatalf("two client Flushes reached the backend %d times, want 2", n)
	}
}

// TestClientClassifiesStaleEpochRefusal pins the wire classification: a
// backend refusal wrapping ErrStaleEpoch crosses the wire as statusStale
// and must come back as ErrStaleEpoch, still a remote answer (ErrRemote),
// after exactly one trip to the backend.
func TestClientClassifiesStaleEpochRefusal(t *testing.T) {
	mem, err := MemBackend(4096)
	if err != nil {
		t.Fatal(err)
	}
	sb := &staleBackend{Backend: mem}
	srv, err := NewServerWith(sb)
	if err != nil {
		t.Fatal(err)
	}
	addr := listen(t, srv)
	defer srv.Close()
	cli, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	_, err = cli.ReadAt(make([]byte, 8), 0)
	if !errors.Is(err, ErrStaleEpoch) {
		t.Fatalf("read refusal = %v, want ErrStaleEpoch", err)
	}
	if !errors.Is(err, ErrRemote) {
		t.Fatalf("stale refusal must remain a remote answer, got %v", err)
	}
	if n := sb.reads.Load(); n != 1 {
		t.Errorf("refused read reached the backend %d times, want 1", n)
	}

	if _, err := cli.WriteAt([]byte("x"), 0); !errors.Is(err, ErrStaleEpoch) {
		t.Fatalf("write refusal = %v, want ErrStaleEpoch", err)
	}
}

// TestClientOrdinaryRefusalIsNotStale guards the classifier's precision:
// a remote refusal without the marker stays a plain ErrRemote.
func TestClientOrdinaryRefusalIsNotStale(t *testing.T) {
	srv, cli := startPair(t, 4096)
	defer srv.Close()
	defer cli.Close()
	// Reads beyond the volume are refused remotely by check().
	_, err := cli.ReadAt(make([]byte, 16), 4096-8)
	if err == nil {
		t.Fatal("out-of-volume read succeeded")
	}
	if errors.Is(err, ErrStaleEpoch) {
		t.Fatalf("ordinary refusal misclassified as stale epoch: %v", err)
	}
}

// TestStaleTextIsNotStaleStatus: only the status byte marks a stale-epoch
// refusal. A statusErr refusal whose text happens to say "stale routing
// epoch" is a plain ErrRemote.
func TestStaleTextIsNotStaleStatus(t *testing.T) {
	a, b := net.Pipe()
	go func() {
		defer a.Close()
		answerRequests(a, func(*request) ([]byte, bool) {
			return response(statusErr, []byte(ErrStaleEpoch.Error())), true
		})
	}()
	cli, err := newClient(b)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	_, err = cli.ReadAt(make([]byte, 8), 0)
	if !errors.Is(err, ErrRemote) || errors.Is(err, ErrStaleEpoch) {
		t.Fatalf("err = %v, want a plain ErrRemote", err)
	}
}

// scriptedPeer serves the i-th accepted connection with script[i] (the
// last entry serves every later one) and closes it when the script returns.
func scriptedPeer(t *testing.T, script ...func(net.Conn)) net.Addr {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for i := 0; ; i++ {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			serve := script[min(i, len(script)-1)]
			go func() {
				defer conn.Close()
				serve(conn)
			}()
		}
	}()
	return ln.Addr()
}

// answerRequests plays a server on conn: it answers the ping handshake with
// a 4096-byte volume and every other request with what answer returns, until
// answer returns false (the frame it returned is still sent) or conn fails.
func answerRequests(conn net.Conn, answer func(req *request) (raw []byte, more bool)) {
	var (
		br  = newReader(conn)
		fw  frameWriter
		req request
		buf payloadBuf
	)
	for {
		if err := readRequest(br, &req, &buf); err != nil {
			return
		}
		if req.op == opPing {
			var info [17]byte
			binary.BigEndian.PutUint64(info[:], 4096)
			if err := fw.writeResponse(conn, statusOK, info[:]); err != nil {
				return
			}
			continue
		}
		raw, more := answer(&req)
		if _, err := conn.Write(raw); err != nil || !more {
			return
		}
	}
}

// response encodes one response frame as the server would.
func response(status uint8, payload []byte) []byte {
	var (
		out bytes.Buffer
		fw  frameWriter
	)
	if err := fw.writeResponse(&out, status, payload); err != nil {
		panic(err)
	}
	return out.Bytes()
}

// TestReconnectDropsBufferedBytes is the regression test for stale bytes in
// the buffered reader: a connection that dies mid-response leaves the head
// of a frame buffered, and the redial on the next op must start from a
// clean reader instead of parsing that tail in front of the new stream.
func TestReconnectDropsBufferedBytes(t *testing.T) {
	fill := func(req *request) ([]byte, bool) {
		return response(statusOK, bytes.Repeat([]byte{0x77}, int(req.length))), true
	}
	addr := scriptedPeer(t,
		func(c net.Conn) {
			answerRequests(c, func(req *request) ([]byte, bool) {
				raw, _ := fill(req)
				return raw[:respHdrLen-2], false // dies two bytes short of a header
			})
		},
		func(c net.Conn) { answerRequests(c, fill) },
	)
	cli, err := Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	got := make([]byte, 16)
	if _, err := cli.ReadAt(got, 0); err == nil {
		t.Fatal("read across a connection killed mid-response succeeded")
	}
	if _, err := cli.ReadAt(got, 0); err != nil {
		t.Fatalf("read after the redial: %v", err)
	}
	if !bytes.Equal(got, bytes.Repeat([]byte{0x77}, 16)) {
		t.Fatalf("read % x after reconnect", got)
	}
}

// TestResponseIntoCallerSlice covers decoding straight into the caller's p:
// an OK response of any other length than len(p) is ErrProtocol and costs
// the connection, whose framing can no longer be trusted; a refusal's text
// never lands in p, even at the very length of p, and leaves the connection
// serving.
func TestResponseIntoCallerSlice(t *testing.T) {
	const n = 16
	sentinel := bytes.Repeat([]byte{0xee}, n)
	cases := []struct {
		name    string
		answer  []byte
		wantErr error
		alive   bool // the connection serves the next request
	}{
		{"short OK", response(statusOK, make([]byte, n/2)), ErrProtocol, false},
		{"long OK", response(statusOK, make([]byte, 2*n)), ErrProtocol, false},
		{"empty OK", response(statusOK, nil), ErrProtocol, false},
		{"refusal as long as p", response(statusErr, []byte("sixteen byte msg")), ErrRemote, true},
		{"refusal beyond the kept text", response(statusErr, bytes.Repeat([]byte{'x'}, 3*errTextMax)), ErrRemote, true},
	}
	for _, tc := range cases {
		a, b := net.Pipe()
		first := true
		go func() {
			defer a.Close()
			answerRequests(a, func(req *request) ([]byte, bool) {
				if first {
					first = false
					return tc.answer, true
				}
				return response(statusOK, make([]byte, req.length)), true
			})
		}()
		cli, err := newClient(b)
		if err != nil {
			t.Fatal(err)
		}
		p := bytes.Clone(sentinel)
		if _, err := cli.ReadAt(p, 0); !errors.Is(err, tc.wantErr) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.wantErr)
		}
		if !bytes.Equal(p, sentinel) {
			t.Errorf("%s: failed read wrote % x into the caller's slice", tc.name, p)
		}
		_, err = cli.ReadAt(p, 0)
		if tc.alive && (err != nil || !bytes.Equal(p, make([]byte, n))) {
			t.Errorf("%s: next read on the same connection: % x, %v", tc.name, p, err)
		}
		if !tc.alive && !errors.Is(err, io.ErrClosedPipe) {
			t.Errorf("%s: next read = %v, want the discarded connection's error", tc.name, err)
		}
		cli.Close()
	}
}
