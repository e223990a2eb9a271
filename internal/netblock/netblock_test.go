package netblock

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"srccache/internal/watchdog"
)

// startPair runs a server over TCP on localhost and returns a connected
// client.
func startPair(t *testing.T, size int64) (*Server, *Client) {
	t.Helper()
	b, err := MemBackend(size)
	if err != nil {
		t.Fatal(err)
	}
	return startPairWith(t, b)
}

// listen serves srv on a loopback port and returns its address. The test
// runs under the watchdog: a connection that holds the server's lock
// wedges the others, and the test would hang rather than fail.
func listen(t *testing.T, srv *Server) string {
	t.Helper()
	watchdog.Arm(t)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return addr.String()
}

// startPairWith is startPair over an arbitrary backend.
func startPairWith(t *testing.T, b Backend) (*Server, *Client) {
	t.Helper()
	return startPairOpts(t, b, 0, ClientOptions{})
}

// startPairOpts is startPairWith with the server's IdleTimeout and the
// client's options.
func startPairOpts(t *testing.T, b Backend, idle time.Duration, o ClientOptions) (*Server, *Client) {
	t.Helper()
	srv, err := NewServerWith(b)
	if err != nil {
		t.Fatal(err)
	}
	srv.IdleTimeout = idle
	addr := listen(t, srv)
	t.Cleanup(func() { srv.Close() })
	cli, err := DialOptions(addr, o)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close() })
	return srv, cli
}

func TestNewServerValidation(t *testing.T) {
	if _, err := NewServer(0); err == nil {
		t.Fatal("accepted empty volume")
	}
}

func TestRoundTripOverTCP(t *testing.T) {
	_, cli := startPair(t, 1<<20)
	if cli.Size() != 1<<20 {
		t.Fatalf("size %d", cli.Size())
	}
	want := []byte("hello remote block device")
	if _, err := cli.WriteAt(want, 4096); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(want))
	if _, err := cli.ReadAt(got, 4096); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("read %q, want %q", got, want)
	}
	if err := cli.Flush(); err != nil {
		t.Fatal(err)
	}
}

func TestTrimZeroes(t *testing.T) {
	_, cli := startPair(t, 1<<20)
	if _, err := cli.WriteAt([]byte{1, 2, 3, 4}, 100); err != nil {
		t.Fatal(err)
	}
	if err := cli.Trim(100, 4); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 4)
	if _, err := cli.ReadAt(got, 100); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte{0, 0, 0, 0}) {
		t.Fatalf("trimmed data %v", got)
	}
}

func TestOutOfRangeRejected(t *testing.T) {
	_, cli := startPair(t, 4096)
	if _, err := cli.WriteAt([]byte{1}, 4096); err == nil {
		t.Fatal("write past end accepted")
	}
	if _, err := cli.ReadAt(make([]byte, 2), 4095); err == nil {
		t.Fatal("read past end accepted")
	}
	if _, err := cli.ReadAt(make([]byte, 1), -1); err == nil {
		t.Fatal("negative offset accepted")
	}
}

func TestConcurrentClients(t *testing.T) {
	srv, err := NewServer(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	addr := listen(t, srv)
	defer srv.Close()

	const clients = 8
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			cli, err := Dial(addr)
			if err != nil {
				errs[id] = err
				return
			}
			defer cli.Close()
			buf := bytes.Repeat([]byte{byte(id + 1)}, 512)
			off := int64(id) * 512
			for rep := 0; rep < 50; rep++ {
				if _, err := cli.WriteAt(buf, off); err != nil {
					errs[id] = err
					return
				}
				got := make([]byte, 512)
				if _, err := cli.ReadAt(got, off); err != nil {
					errs[id] = err
					return
				}
				if !bytes.Equal(got, buf) {
					errs[id] = fmt.Errorf("client %d: corrupted read", id)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestServeConnOverPipe(t *testing.T) {
	srv, err := NewServer(8192)
	if err != nil {
		t.Fatal(err)
	}
	a, b := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.ServeConn(a)
	}()
	cli, err := newClient(b)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cli.WriteAt([]byte("pipe"), 0); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 4)
	if _, err := cli.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if string(got) != "pipe" {
		t.Fatalf("got %q", got)
	}
	cli.Close()
	<-done
}

func TestPingHandshake(t *testing.T) {
	srv, cli := startPair(t, 1<<20)
	srv.SetEpoch(7)
	info, err := cli.Ping()
	if err != nil {
		t.Fatal(err)
	}
	if info.Size != 1<<20 || info.Epoch != 7 || info.Draining {
		t.Fatalf("ping info %+v, want size %d epoch 7 not draining", info, 1<<20)
	}
	if srv.epoch.Load() != 7 {
		t.Fatalf("epoch = %d", srv.epoch.Load())
	}
}

func TestPingReportsDraining(t *testing.T) {
	// Close an unlistened server (a no-op drain with no connections) and
	// then drive handle directly: the one ping must answer with the drain
	// flag set.
	srv, err := NewServer(4096)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	c := &serverConn{w: &out, br: newReader(bytes.NewReader(frame(opPing, 0, 0, nil)))}
	if err := readRequest(c.br, &c.req, &c.buf); err != nil {
		t.Fatal(err)
	}
	if err := srv.handle(c); err != nil {
		t.Fatal(err)
	}
	status, payload, err := nextResponse(newReader(&out))
	if err != nil || status != statusOK {
		t.Fatalf("ping during drain: status %d err %v", status, err)
	}
	if len(payload) != 17 || payload[16]&pingDraining == 0 {
		t.Fatalf("ping payload %v does not advertise draining", payload)
	}
}

func TestBeginDrainKeepsServingAndRefusesEpochs(t *testing.T) {
	// BeginDrain is the planned-shutdown announcement: the server must
	// keep answering (clients finish their work, supervisors observe the
	// flag) while refusing routing-epoch updates — a deregistered member
	// must not advertise a placement it will never serve.
	srv, cli := startPair(t, 1<<20)
	srv.SetEpoch(3)
	srv.BeginDrain()
	if !srv.Draining() {
		t.Fatal("Draining() false after BeginDrain")
	}
	info, err := cli.Ping()
	if err != nil {
		t.Fatalf("ping during planned drain: %v", err)
	}
	if !info.Draining || info.Epoch != 3 {
		t.Fatalf("ping info %+v, want draining at epoch 3", info)
	}
	srv.SetEpoch(9)
	if got := srv.epoch.Load(); got != 3 {
		t.Fatalf("draining server accepted epoch update: %d", got)
	}
	// Data service continues through the drain window.
	if _, err := cli.WriteAt([]byte("still served"), 0); err != nil {
		t.Fatalf("write during planned drain: %v", err)
	}
	p := make([]byte, 12)
	if _, err := cli.ReadAt(p, 0); err != nil || string(p) != "still served" {
		t.Fatalf("read during planned drain: %q, %v", p, err)
	}
}

func TestOpStatsCountServiceAndErrors(t *testing.T) {
	srv, cli := startPair(t, 4096)
	if _, err := cli.WriteAt([]byte("abcd"), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := cli.ReadAt(make([]byte, 4), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Ping(); err != nil {
		t.Fatal(err)
	}
	// An out-of-range read is answered with statusErr and must land in the
	// error column, not vanish. roundTrip is used directly because the
	// client-side range check would reject the request before the wire.
	if err := cli.roundTrip(opRead, 1<<40, 1, nil, make([]byte, 1)); err == nil {
		t.Fatal("out-of-range read succeeded")
	}
	stats := make(map[string]OpStats)
	for _, s := range srv.OpStats() {
		stats[s.Op] = s
	}
	if s := stats["read"]; s.Count != 2 || s.Errors != 1 {
		t.Fatalf("read stats %+v, want count 2 errors 1", s)
	}
	if s := stats["write"]; s.Count != 1 || s.Errors != 0 {
		t.Fatalf("write stats %+v", s)
	}
	// The dial handshake is the first of the two pings.
	if s := stats["ping"]; s.Count != 2 || s.Errors != 0 || s.Max < 0 || s.Total < s.Max {
		t.Fatalf("ping stats %+v, want count 2", s)
	}
	if len(stats) != 3 {
		t.Fatalf("op stats %+v, want read, write and ping only", srv.OpStats())
	}
}

func TestProtocolRejectsGarbage(t *testing.T) {
	var (
		req request
		buf payloadBuf
	)
	if err := readRequest(newReader(bytes.NewReader([]byte("notthemagicnumber"))), &req, &buf); !errors.Is(err, ErrProtocol) {
		t.Fatalf("err = %v", err)
	}
	if _, _, err := readResponse(newReader(bytes.NewReader([]byte("garbagegarbage"))), nil); !errors.Is(err, ErrProtocol) {
		t.Fatalf("err = %v", err)
	}
	// Oversized length field.
	oversized := frame(opRead, 0, MaxPayload+1, nil)
	if err := readRequest(newReader(bytes.NewReader(oversized)), &req, &buf); !errors.Is(err, ErrProtocol) {
		t.Fatalf("oversized err = %v", err)
	}
}

func TestIdleConnectionDropped(t *testing.T) {
	srv, err := NewServer(4096)
	if err != nil {
		t.Fatal(err)
	}
	srv.IdleTimeout = 50 * time.Millisecond
	addr := listen(t, srv)
	defer srv.Close()

	cli, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	// Sit idle past the timeout: the server must hang up, so the next
	// request fails rather than blocking.
	time.Sleep(5 * srv.IdleTimeout)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := cli.ReadAt(make([]byte, 1), 0); err != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("idle connection still served after timeout")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestCloseDrainsIdleConnections(t *testing.T) {
	srv, err := NewServer(4096)
	if err != nil {
		t.Fatal(err)
	}
	srv.DrainGrace = 50 * time.Millisecond
	addr := listen(t, srv)
	// A connected-but-silent client must not block shutdown: without a
	// drain deadline, Close would wait on its read forever.
	cli, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	done := make(chan error, 1)
	go func() { done <- srv.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung on an idle connection")
	}
}

func TestServerCloseIsIdempotent(t *testing.T) {
	srv, err := NewServer(4096)
	if err != nil {
		t.Fatal(err)
	}
	listen(t, srv)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}
