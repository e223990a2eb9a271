package netblock

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"testing"
	"testing/iotest"
)

// chunked delivers data the way the fuzzer's split byte says a network
// might: whole (0), one byte per Read (1, iotest.OneByteReader), or cut in
// two Reads at split-2 — inside the header for the small values the seeds
// use, so a frame is decoded from a header that arrived in pieces.
func chunked(data []byte, split uint8) io.Reader {
	switch cut := int(split) - 2; {
	case split == 0 || cut >= len(data):
		return bytes.NewReader(data)
	case split == 1:
		return iotest.OneByteReader(bytes.NewReader(data))
	default:
		return io.MultiReader(bytes.NewReader(data[:cut]), bytes.NewReader(data[cut:]))
	}
}

// header assembles a 17-byte request header from its fields; the fuzz
// corpora below seed the interesting boundary frames and the engine mutates
// from there.
func header(magic uint32, op uint8, off uint64, length uint32) []byte {
	var hdr [17]byte
	binary.BigEndian.PutUint32(hdr[0:], magic)
	hdr[4] = op
	binary.BigEndian.PutUint64(hdr[5:], off)
	binary.BigEndian.PutUint32(hdr[13:], length)
	return hdr[:]
}

// FuzzReadRequest throws arbitrary byte streams at the frame decoder. The
// decoder must never panic, and an accepted frame must be the one the bytes
// spell however they were cut into reads, with the invariants the server
// relies on: bounded length, payload fully read for writes, nil payload
// otherwise.
func FuzzReadRequest(f *testing.F) {
	f.Add(header(reqMagic, opRead, 0, 4096), uint8(0))
	f.Add(header(reqMagic, opRead, 1<<63, 4096), uint8(0))          // the remote-panic seed
	f.Add(header(reqMagic, opWrite, ^uint64(0)-100, 200), uint8(0)) // off+length uint64 wrap
	f.Add(header(reqMagic, opTrim, 1<<62, MaxPayload), uint8(0))
	f.Add(header(reqMagic, opPing, ^uint64(0), 1), uint8(0))
	f.Add(header(reqMagic, opWrite, 0, MaxPayload+1), uint8(0)) // oversized length
	f.Add(append(header(reqMagic, opWrite, 8, 4), 'd', 'a', 't', 'a'), uint8(0))
	f.Add(append(header(reqMagic, opWrite, 8, 4), 'd', 'a', 't', 'a'), uint8(1))  // byte by byte
	f.Add(append(header(reqMagic, opWrite, 8, 4), 'd', 'a', 't', 'a'), uint8(11)) // split mid-header
	f.Add(header(reqMagic, opRead, 0, 4096), uint8(5))                            // split inside the magic
	f.Add(header(0xdeadbeef, opRead, 0, 0), uint8(0))                             // bad magic
	f.Add([]byte("short"), uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, split uint8) {
		var (
			req request
			buf payloadBuf
		)
		if err := readRequest(newReader(chunked(data, split)), &req, &buf); err != nil {
			return
		}
		if len(data) < reqHdrLen || !bytes.Equal(header(reqMagic, req.op, req.off, req.length), data[:reqHdrLen]) {
			t.Fatalf("decoded %+v from header % x", req, data)
		}
		if req.length > MaxPayload {
			t.Fatalf("accepted length %d over MaxPayload", req.length)
		}
		if req.op == opWrite && !bytes.Equal(req.payload, data[reqHdrLen:reqHdrLen+int(req.length)]) {
			t.Fatalf("write payload % x, frame carried % x", req.payload, data[reqHdrLen:])
		}
		if req.op != opWrite && req.payload != nil {
			t.Fatalf("non-write op %d carried payload", req.op)
		}
	})
}

// fencedBackend refuses every op on the upper half of its volume, as a
// ring member that no longer owns that range would.
type fencedBackend struct{ Backend }

func (b fencedBackend) fence(off int64) error {
	if off >= b.Size()/2 {
		return fmt.Errorf("range at %d not owned here: %w", off, ErrStaleEpoch)
	}
	return nil
}

func (b fencedBackend) ReadAt(p []byte, off int64) error {
	if err := b.fence(off); err != nil {
		return err
	}
	return b.Backend.ReadAt(p, off)
}

func (b fencedBackend) WriteAt(p []byte, off int64) error {
	if err := b.fence(off); err != nil {
		return err
	}
	return b.Backend.WriteAt(p, off)
}

func (b fencedBackend) Trim(off, n int64) error {
	if err := b.fence(off); err != nil {
		return err
	}
	return b.Backend.Trim(off, n)
}

// FuzzHandle drives the full server request loop with arbitrary frames,
// proving no 17-byte header — hostile offsets, wrapped lengths, unknown
// ops — can panic the server or corrupt its framing: every byte the server
// emits must parse as well-formed responses. The volume's upper half is
// fenced, so stale refusals are in play too.
func FuzzHandle(f *testing.F) {
	f.Add(header(reqMagic, opRead, 0, 4096), uint8(0))
	f.Add(header(reqMagic, opRead, 1<<63, 4096), uint8(0)) // the remote-panic regression seed
	f.Add(header(reqMagic, opWrite, ^uint64(0)-4095, 4096), uint8(0))
	f.Add(header(reqMagic, opTrim, ^uint64(0), ^uint32(0)&(MaxPayload-1)), uint8(0))
	f.Add(header(reqMagic, opSize, 1<<63, 0), uint8(0))
	f.Add(header(reqMagic, opPing, 0, 0), uint8(0))                // health probe
	f.Add(header(reqMagic, opPing, 1<<63, MaxPayload-1), uint8(0)) // hostile ping: off/len must be ignored
	f.Add(header(reqMagic, 0xff, 123, 1), uint8(0))                // unknown op
	f.Add(header(reqMagic, opRead, 48<<10, 16), uint8(0))          // stale refusal
	f.Add(append(header(reqMagic, opWrite, 0, 8), []byte("payload!")...), uint8(0))
	f.Add(append(header(reqMagic, opWrite, 0, 8), []byte("payload!")...), uint8(1))  // byte by byte
	f.Add(append(header(reqMagic, opWrite, 0, 8), []byte("payload!")...), uint8(15)) // split mid-header
	f.Add(append(header(reqMagic, opRead, 4096, 16), header(reqMagic, opRead, 1<<63, 1)...), uint8(0))
	f.Add(append(header(reqMagic, opRead, 4096, 16), header(reqMagic, opRead, 1<<63, 1)...), uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, split uint8) {
		mem, err := MemBackend(64 << 10)
		if err != nil {
			t.Fatal(err)
		}
		srv, err := NewServerWith(fencedBackend{mem})
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		// ServeConn returns an error only for protocol violations; it must
		// never panic regardless of input.
		_ = srv.ServeConn(rwPair{chunked(data, split), &out})
		br := newReader(&out)
		for {
			status, _, err := nextResponse(br)
			if err != nil {
				if err == io.EOF {
					break
				}
				t.Fatalf("server emitted unparseable response bytes: %v", err)
			}
			if status > statusStale {
				t.Fatalf("server emitted unknown status %d", status)
			}
		}
	})
}
