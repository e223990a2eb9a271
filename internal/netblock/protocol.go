// Package netblock implements a minimal remote block-device protocol over
// TCP — the repository's stand-in for the iSCSI transport the paper's
// testbed used between host and primary storage (Table 1). Unlike the
// virtual-time simulation, this is a real network service moving real
// bytes: Server exports an in-memory volume, Client gives random-access
// reads/writes/trims/flushes over a connection.
//
// Wire format (all integers big-endian):
//
//	request:  magic u32 | op u8 | offset u64 | length u32 | payload (writes)
//	response: magic u32 | status u8 | length u32 | payload (reads)
//
// The opPing health op ignores offset and length and answers with a
// 17-byte payload — size u64 | epoch u64 | flags u8 — the cluster layer's
// health probe and the client's dial handshake: volume size, the server's
// ring epoch, and whether it is draining for shutdown. Op 5, the size query
// the handshake once was, is retired and answered "unknown op".
//
// A response's status is one of:
//
//	0 statusOK     the op succeeded; the payload is its answer
//	1 statusErr    the server refused or failed the op; the payload is text
//	2 statusStale  the server does not own the range (ErrStaleEpoch); the
//	               payload is text
package netblock

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
)

// Protocol constants.
const (
	reqMagic  uint32 = 0x53524351 // "SRCQ"
	respMagic uint32 = 0x53524352 // "SRCR"

	opRead  uint8 = 1
	opWrite uint8 = 2
	opTrim  uint8 = 3
	opFlush uint8 = 4
	opPing  uint8 = 6 // 5 is retired

	statusOK    uint8 = 0
	statusErr   uint8 = 1
	statusStale uint8 = 2

	// pingDraining is the flag bit set in a ping response while the server
	// is shutting down — a routing hint, not an error: in-flight requests
	// still complete under DrainGrace.
	pingDraining uint8 = 1 << 0

	// MaxPayload bounds one transfer.
	MaxPayload = 4 << 20

	reqHdrLen  = 17
	respHdrLen = 9

	// pageSize is the payload up to which a frame is assembled in the
	// connection's scratch frame and leaves in one plain Write; above it
	// the copy would cost more than the second iovec of a vectored write.
	pageSize = 4096

	// readerSize is each side's buffered reader: the longer header plus
	// one page, so a 4 KiB frame arrives in one read. Nothing larger is
	// useful with one frame in flight per connection, and every buffered
	// payload byte is copied once more on its way to the destination.
	readerSize = reqHdrLen + pageSize

	// retainMax caps the payload buffer a server connection keeps between
	// frames. It covers the fleet's 256 KiB repair chunks; a larger frame
	// allocates its own buffer and drops it afterwards.
	retainMax = 256 << 10

	// errTextMax is how much of an error response's text the client keeps.
	errTextMax = 1 << 10
)

// Errors.
var (
	// ErrProtocol reports a malformed frame.
	ErrProtocol = errors.New("netblock: protocol error")
	// ErrRemote reports a server-side failure.
	ErrRemote = errors.New("netblock: remote error")
)

// request is one decoded command frame.
type request struct {
	op      uint8
	off     uint64
	length  uint32
	payload []byte
}

// newReader returns the buffered reader one side of a connection decodes
// frames through. It holds bytes of its connection's stream, so it is
// dropped together with the connection.
func newReader(r io.Reader) *bufio.Reader { return bufio.NewReaderSize(r, readerSize) }

// peekHeader returns the next n bytes of the stream in place, which keeps
// the header off the heap. The slice is valid until the next call on br.
func peekHeader(br *bufio.Reader, n int) ([]byte, error) {
	hdr, err := br.Peek(n)
	if err == io.EOF && len(hdr) > 0 {
		err = io.ErrUnexpectedEOF
	}
	return hdr, err
}

// frameWriter encodes frames for one connection so that each leaves in a
// single write: the header is built in frame, a payload of up to a page is
// copied in behind it, and a longer one follows it in one vectored write
// (writev on a *net.TCPConn; any other writer gets the two buffers in turn).
type frameWriter struct {
	frame [reqHdrLen + pageSize]byte
	// net.Buffers.WriteTo consumes an addressable slice; vec and its
	// backing iov live here so that slice is not allocated per frame.
	iov [2][]byte
	vec net.Buffers
}

// send writes frame[:hdrLen] followed by payload.
func (f *frameWriter) send(w io.Writer, hdrLen int, payload []byte) error {
	if len(payload) <= pageSize {
		n := copy(f.frame[hdrLen:], payload)
		_, err := w.Write(f.frame[:hdrLen+n])
		return err
	}
	f.iov[0], f.iov[1] = f.frame[:hdrLen], payload
	f.vec = f.iov[:]
	_, err := f.vec.WriteTo(w)
	f.iov[1] = nil // the payload is the caller's: keep no reference to it
	return err
}

// writeRequest encodes one command frame to w.
func (f *frameWriter) writeRequest(w io.Writer, op uint8, off uint64, length uint32, payload []byte) error {
	binary.BigEndian.PutUint32(f.frame[0:], reqMagic)
	f.frame[4] = op
	binary.BigEndian.PutUint64(f.frame[5:], off)
	binary.BigEndian.PutUint32(f.frame[13:], length)
	return f.send(w, reqHdrLen, payload)
}

// writeResponse encodes one response frame to w.
func (f *frameWriter) writeResponse(w io.Writer, status uint8, payload []byte) error {
	binary.BigEndian.PutUint32(f.frame[0:], respMagic)
	f.frame[4] = status
	binary.BigEndian.PutUint32(f.frame[5:], uint32(len(payload)))
	return f.send(w, respHdrLen, payload)
}

// payloadBuf is the payload space a server connection reuses from frame to
// frame: the bytes take returns are valid until the next take.
type payloadBuf []byte

// take returns n bytes, the connection's own up to retainMax.
func (b *payloadBuf) take(n int) []byte {
	if n > retainMax {
		return make([]byte, n)
	}
	if n > cap(*b) {
		*b = make([]byte, n)
	}
	return (*b)[:n]
}

// readRequest decodes one command frame from br into req, a write's payload
// into space taken from buf.
func readRequest(br *bufio.Reader, req *request, buf *payloadBuf) error {
	hdr, err := peekHeader(br, reqHdrLen)
	if err != nil {
		return err
	}
	if binary.BigEndian.Uint32(hdr[0:]) != reqMagic {
		return fmt.Errorf("%w: bad request magic", ErrProtocol)
	}
	*req = request{
		op:     hdr[4],
		off:    binary.BigEndian.Uint64(hdr[5:]),
		length: binary.BigEndian.Uint32(hdr[13:]),
	}
	if req.length > MaxPayload {
		return fmt.Errorf("%w: length %d exceeds limit", ErrProtocol, req.length)
	}
	if _, err := br.Discard(reqHdrLen); err != nil {
		return err
	}
	if req.op == opWrite {
		req.payload = buf.take(int(req.length))
		if _, err := io.ReadFull(br, req.payload); err != nil {
			return err
		}
	}
	return nil
}

// readResponseHeader decodes a response frame's header from br and leaves
// its n payload bytes unread.
func readResponseHeader(br *bufio.Reader) (status uint8, n int, err error) {
	hdr, err := peekHeader(br, respHdrLen)
	if err != nil {
		return 0, 0, err
	}
	if binary.BigEndian.Uint32(hdr[0:]) != respMagic {
		return 0, 0, fmt.Errorf("%w: bad response magic", ErrProtocol)
	}
	status, length := hdr[4], binary.BigEndian.Uint32(hdr[5:])
	if length > MaxPayload {
		return 0, 0, fmt.Errorf("%w: length %d exceeds limit", ErrProtocol, length)
	}
	if _, err := br.Discard(respHdrLen); err != nil {
		return 0, 0, err
	}
	return status, int(length), nil
}

// readResponse decodes one response frame from br. The payload of an OK
// response is read straight into dst, whose length it must have: after any
// other length the stream's framing cannot be trusted and the error is
// ErrProtocol. A refusal's text never touches dst; it is returned in text,
// cut to errTextMax.
func readResponse(br *bufio.Reader, dst []byte) (status uint8, text []byte, err error) {
	status, n, err := readResponseHeader(br)
	if err != nil {
		return 0, nil, err
	}
	if status != statusOK {
		text = make([]byte, min(n, errTextMax))
		if _, err := io.ReadFull(br, text); err != nil {
			return 0, nil, err
		}
		if _, err := br.Discard(n - len(text)); err != nil {
			return 0, nil, err
		}
		return status, text, nil
	}
	if n != len(dst) {
		return 0, nil, fmt.Errorf("%w: response carries %d bytes, want %d", ErrProtocol, n, len(dst))
	}
	if _, err := io.ReadFull(br, dst); err != nil {
		return 0, nil, err
	}
	return statusOK, nil, nil
}
