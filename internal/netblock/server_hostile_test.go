package netblock

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"math"
	"net"
	"os"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// rwPair glues a request stream and a response sink into the io.ReadWriter
// ServeConn wants, with no network involved.
type rwPair struct {
	io.Reader
	io.Writer
}

// frame encodes one request header (+ payload) exactly as a client would,
// but with no client-side validation — the hostile path.
func frame(op uint8, off uint64, length uint32, payload []byte) []byte {
	var (
		buf bytes.Buffer
		fw  frameWriter
	)
	if err := fw.writeRequest(&buf, op, off, length, payload); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// nextResponse decodes one response of whatever payload length from br.
func nextResponse(br *bufio.Reader) (status uint8, payload []byte, err error) {
	status, n, err := readResponseHeader(br)
	if err != nil {
		return 0, nil, err
	}
	payload = make([]byte, n)
	_, err = io.ReadFull(br, payload)
	return status, payload, err
}

// readStatuses decodes every response in buf and returns the status bytes.
func readStatuses(t *testing.T, r io.Reader) []uint8 {
	t.Helper()
	var out []uint8
	br := newReader(r)
	for {
		status, _, err := nextResponse(br)
		if errors.Is(err, io.EOF) {
			return out
		}
		if err != nil {
			t.Fatalf("decoding response %d: %v", len(out), err)
		}
		out = append(out, status)
	}
}

// TestHostileOffsetOverflowRejected is the regression test for the
// remote-panic bug: an offset with the top bit set went negative in int64,
// passed the old range check, and panicked the data-slice expression —
// one corrupt frame killing the server. The same applies to off+length
// wrapping uint64. Both must now produce statusErr and leave the
// connection serving.
func TestHostileOffsetOverflowRejected(t *testing.T) {
	srv, err := NewServer(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	var in bytes.Buffer
	in.Write(frame(opRead, 1<<63, 4096, nil))                      // off > 2^63: old check saw a negative int64
	in.Write(frame(opRead, ^uint64(0)-100, 200, nil))              // off+length wraps uint64
	in.Write(frame(opWrite, 1<<63, 8, []byte("hostile!")))         // write flavor of the same
	in.Write(frame(opTrim, uint64(1<<20), 1, nil))                 // off == size, length 1: one past the end
	in.Write(frame(opRead, uint64(1<<20)-4, 4, nil))               // still-valid tail read
	in.Write(frame(opPing, 1<<63, ^uint32(0)&(MaxPayload-1), nil)) // hostile ping: off/len ignored, must answer OK
	in.Write(frame(opWrite, 0, 4, []byte("good")))                 // server must still serve
	var out bytes.Buffer
	if err := srv.ServeConn(rwPair{&in, &out}); err != nil {
		t.Fatalf("ServeConn: %v", err)
	}
	got := readStatuses(t, &out)
	want := []uint8{statusErr, statusErr, statusErr, statusErr, statusOK, statusOK, statusOK}
	if len(got) != len(want) {
		t.Fatalf("got %d responses %v, want %d", len(got), got, len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("response %d: status %d, want %d (all: %v)", i, got[i], want[i], got)
		}
	}
}

// TestClientCheckHostileOffsets is the client-side twin of the server's
// uint64 range check: off+n must not be formed in int64, where an offset
// near MaxInt64 wraps negative, passes, and puts a request on the wire that
// only the server's check stops.
func TestClientCheckHostileOffsets(t *testing.T) {
	const size = 1 << 20
	c := &Client{size: size}
	cases := []struct {
		off  int64
		n    int
		want error
	}{
		{0, 4096, nil},
		{size - 4096, 4096, nil},
		{size, 0, nil},
		{size - 4095, 4096, ErrRemote}, // one byte past the end
		{size, 1, ErrRemote},
		{math.MaxInt64, 1, ErrRemote},         // off+n wraps to MinInt64
		{math.MaxInt64 - 100, 200, ErrRemote}, // wraps mid-range
		{math.MaxInt64 - MaxPayload + 1, MaxPayload, ErrRemote},
		{-1, 1, ErrProtocol},
		{0, -1, ErrProtocol},
		{0, MaxPayload + 1, ErrProtocol},
	}
	for _, tc := range cases {
		if err := c.check(tc.off, tc.n); !errors.Is(err, tc.want) {
			t.Errorf("check(%d, %d) = %v, want %v", tc.off, tc.n, err, tc.want)
		}
	}
}

// scriptedListener returns the scripted errors first, then delegates to the
// real listener (or blocks forever when nil until Close).
type scriptedListener struct {
	mu     sync.Mutex
	errs   []error
	real   net.Listener
	closed chan struct{}
	once   sync.Once
}

func (l *scriptedListener) Accept() (net.Conn, error) {
	l.mu.Lock()
	if len(l.errs) > 0 {
		err := l.errs[0]
		l.errs = l.errs[1:]
		l.mu.Unlock()
		return nil, err
	}
	l.mu.Unlock()
	if l.real != nil {
		return l.real.Accept()
	}
	<-l.closed
	return nil, net.ErrClosed
}

func (l *scriptedListener) Close() error {
	l.once.Do(func() { close(l.closed) })
	if l.real != nil {
		return l.real.Close()
	}
	return nil
}

func (l *scriptedListener) Addr() net.Addr {
	if l.real != nil {
		return l.real.Addr()
	}
	return &net.TCPAddr{}
}

// wrapErrno mirrors how the net package surfaces accept(2) errnos.
func wrapErrno(errno syscall.Errno) error {
	return &net.OpError{Op: "accept", Net: "tcp", Err: os.NewSyscallError("accept", errno)}
}

// TestAcceptLoopRetriesTemporaryErrors proves a burst of EMFILE/ECONNABORTED
// no longer kills the listener: after the scripted failures drain, a real
// client connects and round-trips, and Close reports success.
func TestAcceptLoopRetriesTemporaryErrors(t *testing.T) {
	real, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	lis := &scriptedListener{
		errs: []error{
			wrapErrno(syscall.EMFILE),
			wrapErrno(syscall.ECONNABORTED),
			wrapErrno(syscall.ENFILE),
		},
		real:   real,
		closed: make(chan struct{}),
	}
	srv, err := NewServer(4096)
	if err != nil {
		t.Fatal(err)
	}
	srv.lis = lis
	srv.wg.Add(1)
	go srv.acceptLoop(lis)

	cli, err := Dial(real.Addr().String())
	if err != nil {
		t.Fatalf("dial after transient accept errors: %v", err)
	}
	if _, err := cli.WriteAt([]byte("ok"), 0); err != nil {
		t.Fatal(err)
	}
	cli.Close()
	if err := srv.Close(); err != nil {
		t.Fatalf("Close after recovered accept loop: %v", err)
	}
}

// TestAcceptLoopTerminalErrorSurfacedFromClose proves a non-temporary
// accept failure is recorded: the loop exits, and Close — which previously
// reported nil while the listener was long dead — returns the failure.
func TestAcceptLoopTerminalErrorSurfacedFromClose(t *testing.T) {
	boom := errors.New("permanent socket failure")
	lis := &scriptedListener{errs: []error{boom}, closed: make(chan struct{})}
	srv, err := NewServer(4096)
	if err != nil {
		t.Fatal(err)
	}
	srv.lis = lis
	srv.wg.Add(1)
	go srv.acceptLoop(lis)

	deadline := time.Now().Add(5 * time.Second)
	for {
		srv.emu.Lock()
		recorded := srv.listenErr
		srv.emu.Unlock()
		if recorded != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("terminal accept error never recorded")
		}
		time.Sleep(time.Millisecond)
	}
	err = srv.Close()
	if err == nil || !errors.Is(err, boom) {
		t.Fatalf("Close = %v, want wrapped %v", err, boom)
	}
	if !strings.Contains(err.Error(), "accept loop terminated") {
		t.Fatalf("Close error %q lacks accept-loop context", err)
	}
}

// TestBackendServerRejectsNil pins NewServerWith's validation.
func TestBackendServerRejectsNil(t *testing.T) {
	if _, err := NewServerWith(nil); err == nil {
		t.Fatal("nil backend accepted")
	}
}
