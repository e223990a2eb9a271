package netblock

import (
	"bytes"
	"encoding/hex"
	"errors"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"srccache/internal/engine"
)

// TestGoldenWireBytes pins the encoded frames to the bytes the two-write
// encoder before this one produced (generated from that code), so either
// side can be upgraded alone. The 8 KiB cases take the vectored path.
func TestGoldenWireBytes(t *testing.T) {
	big := bytes.Repeat([]byte{0xab}, 2*pageSize)
	cases := []struct {
		name   string
		encode func(*frameWriter, io.Writer) error
		want   string // hex; a long payload is appended as big
		tail   []byte
	}{
		{"write request", func(f *frameWriter, w io.Writer) error {
			return f.writeRequest(w, opWrite, 0x0102030405060708, 4, []byte("data"))
		}, "535243510201020304050607080000000464617461", nil},
		{"read request", func(f *frameWriter, w io.Writer) error {
			return f.writeRequest(w, opRead, 4096, 4096, nil)
		}, "5352435101000000000000100000001000", nil},
		{"ping request", func(f *frameWriter, w io.Writer) error {
			return f.writeRequest(w, opPing, 0, 0, nil)
		}, "5352435106000000000000000000000000", nil},
		{"vectored write request", func(f *frameWriter, w io.Writer) error {
			return f.writeRequest(w, opWrite, 8192, 8192, big)
		}, "5352435102000000000000200000002000", big},
		{"ok response", func(f *frameWriter, w io.Writer) error {
			return f.writeResponse(w, statusOK, []byte("data"))
		}, "53524352000000000464617461", nil},
		{"empty ok response", func(f *frameWriter, w io.Writer) error {
			return f.writeResponse(w, statusOK, nil)
		}, "535243520000000000", nil},
		{"error response", func(f *frameWriter, w io.Writer) error {
			return f.writeResponse(w, statusErr, []byte("out of range"))
		}, "53524352010000000c6f7574206f662072616e6765", nil},
		{"stale refusal response", func(f *frameWriter, w io.Writer) error {
			return f.writeResponse(w, statusStale, []byte("stale"))
		}, "5352435202000000057374616c65", nil},
		{"vectored ok response", func(f *frameWriter, w io.Writer) error {
			return f.writeResponse(w, statusOK, big)
		}, "535243520000002000", big},
	}
	var fw frameWriter // one writer for every frame, as a connection has
	for _, tc := range cases {
		var got bytes.Buffer
		if err := tc.encode(&fw, &got); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		want, err := hex.DecodeString(tc.want)
		if err != nil {
			t.Fatal(err)
		}
		if want = append(want, tc.tail...); !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%s: encoded % x, want % x", tc.name, got.Bytes()[:min(got.Len(), 32)], want[:min(len(want), 32)])
		}
	}
}

// countingConn counts the Write and Read calls on one end of a connection.
type countingConn struct {
	net.Conn
	writes, reads atomic.Int64
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

func (c *countingConn) Read(p []byte) (int, error) {
	c.reads.Add(1)
	return c.Conn.Read(p)
}

// TestOneWritePerFrame is the one-write rule: a request and its response
// each cross the connection in a single Write for payloads up to a page,
// and each is picked up by a single Read (net.Pipe hands a Read whatever of
// one Write fits, as a socket whose bytes have all arrived does).
func TestOneWritePerFrame(t *testing.T) {
	srv, err := NewServer(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	a, b := net.Pipe()
	cliEnd, srvEnd := &countingConn{Conn: a}, &countingConn{Conn: b}
	done := make(chan error, 1)
	go func() { done <- srv.ServeConn(srvEnd) }()
	cli, err := newClient(cliEnd)
	if err != nil {
		t.Fatal(err)
	}
	page := bytes.Repeat([]byte{0x5a}, pageSize)
	ops := []struct {
		name string
		do   func() error
	}{
		{"4 KiB write", func() error { _, err := cli.WriteAt(page, pageSize); return err }},
		{"4 KiB read", func() error { _, err := cli.ReadAt(make([]byte, pageSize), pageSize); return err }},
		{"trim", func() error { return cli.Trim(0, pageSize) }},
		{"ping", func() error { _, err := cli.Ping(); return err }},
		{"refused read", func() error {
			if err := cli.roundTrip(opRead, 1<<40, 1, nil, make([]byte, 1)); !errors.Is(err, ErrRemote) {
				return errors.New("out-of-range read not refused")
			}
			return nil
		}},
	}
	for _, op := range ops {
		reqW, respW, respR := cliEnd.writes.Load(), srvEnd.writes.Load(), cliEnd.reads.Load()
		if err := op.do(); err != nil {
			t.Fatalf("%s: %v", op.name, err)
		}
		if req, resp := cliEnd.writes.Load()-reqW, srvEnd.writes.Load()-respW; req != 1 || resp != 1 {
			t.Errorf("%s: %d request and %d response Writes, want 1 and 1", op.name, req, resp)
		}
		if resp := cliEnd.reads.Load() - respR; resp != 1 {
			t.Errorf("%s: %d response Reads, want 1", op.name, resp)
		}
	}
	cli.Close()
	if err := <-done; err != nil {
		t.Fatalf("ServeConn: %v", err)
	}
	// The server issues its next Read while the client is still returning,
	// so its Reads are counted over the whole connection: one per request,
	// the handshake's included, and the one that met the close.
	if got, want := srvEnd.reads.Load(), int64(len(ops)+2); got != want {
		t.Errorf("%d request Reads for %d requests, want %d", got, len(ops)+1, want)
	}
}

// TestSteadyStateRoundTripAllocs holds client and server together to at
// most one allocation per 4 KiB read and write over loopback TCP: the
// frames, the payload buffers and the decoded request are all reused. With
// the engine as the backend the bound is zero: its ReadAt and WriteAt run
// on the connection's goroutine and allocate nothing. The deadlines case runs
// with netblockd's client Timeout and server IdleTimeout, and forces the
// client to re-arm its deadline on every op, so the re-arm is pinned too.
func TestSteadyStateRoundTripAllocs(t *testing.T) {
	build, err := engine.MemShardBuilder(engine.ShardSpec{ShardBytes: 8 << 20, EraseGroupSize: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := engine.New(engine.Options{Shards: 2, StripePages: 256, Payload: true}, build)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	flat, err := MemBackend(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	backends := []struct {
		name          string
		b             Backend
		max           float64
		idle, timeout time.Duration
	}{
		{"flat", flat, 1, 0, 0},
		{"engine", eng, 0, 0, 0},
		{"engine with deadlines", eng, 0, 2 * time.Minute, 10 * time.Second},
	}
	for _, tc := range backends {
		t.Run(tc.name, func(t *testing.T) {
			_, cli := startPairOpts(t, tc.b, tc.idle, ClientOptions{Timeout: tc.timeout})
			page := bytes.Repeat([]byte{0xc3}, pageSize)
			got := make([]byte, pageSize)
			roundTrip := func() {
				cli.armed = time.Time{}
				if _, err := cli.WriteAt(page, 3*pageSize); err != nil {
					t.Fatal(err)
				}
				if _, err := cli.ReadAt(got, 3*pageSize); err != nil {
					t.Fatal(err)
				}
			}
			// Grow the server connection's payload buffer, and cycle the
			// engine's cache through its segment buffers, first.
			for i := 0; i < 2000; i++ {
				roundTrip()
			}
			if n := testing.AllocsPerRun(200, roundTrip); n > tc.max {
				t.Errorf("%v allocations per write+read round trip, want at most %v", n, tc.max)
			}
			if !bytes.Equal(got, page) {
				t.Fatal("read back other bytes than written")
			}
		})
	}
}

// TestLargeFrameRoundTrip crosses every buffering boundary on loopback TCP:
// payloads around the page (scratch frame vs vectored write, reader-sized vs
// direct reads), at the retention cap and beyond it.
func TestLargeFrameRoundTrip(t *testing.T) {
	_, cli := startPair(t, 2*MaxPayload)
	for _, n := range []int{1, pageSize - 1, pageSize, pageSize + 1, readerSize, 64 << 10, retainMax, retainMax + 1, MaxPayload} {
		want := make([]byte, n)
		for i := range want {
			want[i] = byte(i*7 + n)
		}
		if _, err := cli.WriteAt(want, 5); err != nil {
			t.Fatalf("write %d: %v", n, err)
		}
		got := make([]byte, n)
		if _, err := cli.ReadAt(got, 5); err != nil {
			t.Fatalf("read %d: %v", n, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%d-byte payload did not round-trip", n)
		}
	}
}
