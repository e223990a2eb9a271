package blockdev

import (
	"errors"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"srccache/internal/vtime"
)

// mustTag reads a tag, failing the test on error: content-layer reads in
// these tests address in-range pages, so any error is a test bug.
func mustTag(t *testing.T, c *Content, page int64) Tag {
	t.Helper()
	tag, err := c.ReadTag(page)
	if err != nil {
		t.Fatalf("ReadTag(%d): %v", page, err)
	}
	return tag
}

// mustBlob reads a metadata blob, failing the test on error.
func mustBlob(t *testing.T, c *Content, page int64) []byte {
	t.Helper()
	b, err := c.ReadBlob(page)
	if err != nil {
		t.Fatalf("ReadBlob(%d): %v", page, err)
	}
	return b
}

func TestRequestValidate(t *testing.T) {
	const capacity = 1 << 20
	tests := []struct {
		name    string
		req     Request
		wantErr error
	}{
		{"valid read", Request{OpRead, 0, PageSize}, nil},
		{"valid write end", Request{OpWrite, capacity - PageSize, PageSize}, nil},
		{"valid trim", Request{OpTrim, 0, capacity}, nil},
		{"unknown op", Request{Op(9), 0, PageSize}, ErrBadRequest},
		{"unaligned off", Request{OpRead, 1, PageSize}, ErrUnaligned},
		{"unaligned len", Request{OpRead, 0, PageSize + 1}, ErrUnaligned},
		{"zero len", Request{OpRead, 0, 0}, ErrBadRequest},
		{"negative off", Request{OpRead, -PageSize, PageSize}, ErrOutOfRange},
		{"past end", Request{OpRead, capacity, PageSize}, ErrOutOfRange},
		// Off+Len wraps to a negative number here; the bound must not.
		{"end past max int64", Request{OpRead, math.MaxInt64 - (PageSize - 1), 2 * PageSize}, ErrOutOfRange},
		{"len past max int64", Request{OpRead, PageSize, math.MaxInt64 - (PageSize - 1)}, ErrOutOfRange},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.req.Validate(capacity)
			if !errors.Is(err, tt.wantErr) {
				t.Fatalf("Validate(%v) = %v, want %v", tt.req, err, tt.wantErr)
			}
			if err != nil && !strings.HasPrefix(err.Error(), tt.wantErr.Error()+": ") {
				t.Fatalf("Validate(%v) says %q, want it to start with %q", tt.req, err, tt.wantErr)
			}
		})
	}
}

func TestOpString(t *testing.T) {
	if OpRead.String() != "read" || OpWrite.String() != "write" || OpTrim.String() != "trim" {
		t.Fatal("op names wrong")
	}
	if Op(42).String() != "op(42)" {
		t.Fatalf("unknown op string = %q", Op(42).String())
	}
}

func TestStatsRecord(t *testing.T) {
	var s Stats
	s.Record(Request{OpRead, 0, 2 * PageSize})
	s.Record(Request{OpWrite, 0, PageSize})
	s.Record(Request{OpTrim, 0, 3 * PageSize})
	if s.ReadOps != 1 || s.ReadBytes != 2*PageSize {
		t.Fatalf("read stats %+v", s)
	}
	if s.WriteOps != 1 || s.WriteBytes != PageSize {
		t.Fatalf("write stats %+v", s)
	}
	if s.TrimOps != 1 || s.TrimBytes != 3*PageSize {
		t.Fatalf("trim stats %+v", s)
	}
	if s.TotalBytes() != 3*PageSize {
		t.Fatalf("total bytes %d, want %d", s.TotalBytes(), 3*PageSize)
	}
}

func TestDataTagDeterministicAndDistinct(t *testing.T) {
	a := DataTag(10, 1)
	if a != DataTag(10, 1) {
		t.Fatal("DataTag not deterministic")
	}
	if a == DataTag(10, 2) || a == DataTag(11, 1) {
		t.Fatal("DataTag collision across version/lba")
	}
	if a.IsZero() {
		t.Fatal("real tag is zero")
	}
}

func TestParityTagReconstruction(t *testing.T) {
	d0, d1, d2 := DataTag(1, 1), DataTag(2, 7), DataTag(3, 3)
	p := d0.XOR(d1).XOR(d2)
	// Losing d1: XOR of parity with survivors reconstructs it.
	if got := p.XOR(d0).XOR(d2); got != d1 {
		t.Fatalf("reconstructed %v, want %v", got, d1)
	}
}

func TestTagXORProperties(t *testing.T) {
	f := func(aHi, aLo, bHi, bLo uint64) bool {
		a, b := Tag{aHi, aLo}, Tag{bHi, bLo}
		// Commutative, self-inverse, identity with zero.
		return a.XOR(b) == b.XOR(a) && a.XOR(a).IsZero() && a.XOR(ZeroTag) == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestContentWriteReadTrim(t *testing.T) {
	c := NewContent(16 * PageSize)
	if err := c.WriteTag(3, DataTag(99, 1)); err != nil {
		t.Fatal(err)
	}
	got, err := c.ReadTag(3)
	if err != nil || got != DataTag(99, 1) {
		t.Fatalf("ReadTag = %v, %v", got, err)
	}
	if got := mustTag(t, c, 4); !got.IsZero() {
		t.Fatalf("unwritten page tag = %v", got)
	}
	if err := c.Trim(0, 16); err != nil {
		t.Fatal(err)
	}
	if got := mustTag(t, c, 3); !got.IsZero() {
		t.Fatalf("trimmed page tag = %v", got)
	}
	if err := c.WriteTag(16, DataTag(1, 1)); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("out of range write err = %v", err)
	}
}

func TestContentBlob(t *testing.T) {
	c := NewContent(4 * PageSize)
	blob := []byte("segment summary")
	if err := c.WriteBlob(1, blob); err != nil {
		t.Fatal(err)
	}
	blob[0] = 'X' // caller mutation must not leak in
	got, err := c.ReadBlob(1)
	if err != nil || string(got) != "segment summary" {
		t.Fatalf("ReadBlob = %q, %v", got, err)
	}
	got[0] = 'Y' // returned copy mutation must not leak back
	again := mustBlob(t, c, 1)
	if string(again) != "segment summary" {
		t.Fatalf("blob aliased: %q", again)
	}
	if b := mustBlob(t, c, 2); b != nil {
		t.Fatalf("empty page blob = %v", b)
	}
	if err := c.WriteBlob(0, make([]byte, PageSize+1)); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("oversized blob err = %v", err)
	}
}

func TestContentCrashRevertsVolatileWrites(t *testing.T) {
	c := NewContent(8 * PageSize)
	committed := DataTag(5, 1)
	if err := c.WriteTag(5, committed); err != nil {
		t.Fatal(err)
	}
	c.FlushContent()

	// Overwrite page 5 and write fresh page 6, then crash before flushing.
	if err := c.WriteTag(5, DataTag(5, 2)); err != nil {
		t.Fatal(err)
	}
	if err := c.WriteTag(6, DataTag(6, 1)); err != nil {
		t.Fatal(err)
	}
	if err := c.WriteBlob(7, []byte("meta")); err != nil {
		t.Fatal(err)
	}
	if n := dirtyPages(c); n != 3 {
		t.Fatalf("dirty pages = %d, want 3", n)
	}
	c.Crash()

	if got := mustTag(t, c, 5); got != committed {
		t.Fatalf("page 5 after crash = %v, want committed %v", got, committed)
	}
	if got := mustTag(t, c, 6); !got.IsZero() {
		t.Fatalf("page 6 after crash = %v, want zero", got)
	}
	if b := mustBlob(t, c, 7); b != nil {
		t.Fatalf("page 7 blob after crash = %q, want nil", b)
	}
}

func TestContentCrashPreservesCommitted(t *testing.T) {
	c := NewContent(8 * PageSize)
	if err := c.WriteBlob(2, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	c.FlushContent()
	c.Crash() // nothing volatile: no-op
	if b := mustBlob(t, c, 2); string(b) != "hello" {
		t.Fatalf("committed blob lost: %q", b)
	}
}

func TestContentCorruption(t *testing.T) {
	c := NewContent(4 * PageSize)
	want := DataTag(1, 1)
	if err := c.WriteTag(1, want); err != nil {
		t.Fatal(err)
	}
	if err := c.Corrupt(1); err != nil {
		t.Fatal(err)
	}
	if got := mustTag(t, c, 1); got == want {
		t.Fatal("corrupted page read back clean")
	}
	// Rewriting clears the corruption.
	if err := c.WriteTag(1, want); err != nil {
		t.Fatal(err)
	}
	if got := mustTag(t, c, 1); got != want {
		t.Fatalf("rewrite did not clear corruption: %v", got)
	}
}

func TestMemDeviceTiming(t *testing.T) {
	d := NewMemDevice(1<<20, vtime.Millisecond)
	done1, err := d.Submit(0, Request{OpWrite, 0, PageSize})
	if err != nil {
		t.Fatal(err)
	}
	if done1 != vtime.Time(vtime.Millisecond) {
		t.Fatalf("first op done at %v", done1)
	}
	// Second op submitted at t=0 queues behind the first.
	done2, err := d.Submit(0, Request{OpRead, 0, PageSize})
	if err != nil {
		t.Fatal(err)
	}
	if done2 != vtime.Time(2*vtime.Millisecond) {
		t.Fatalf("queued op done at %v", done2)
	}
	fd, err := d.Flush(0)
	if err != nil {
		t.Fatal(err)
	}
	if fd != done2 {
		t.Fatalf("flush done at %v, want %v", fd, done2)
	}
	if d.Stats().WriteOps != 1 || d.Stats().ReadOps != 1 || d.Stats().Flushes != 1 {
		t.Fatalf("stats %+v", d.Stats())
	}
}

func TestFaultyDevice(t *testing.T) {
	d := NewMemDevice(1<<20, 0)
	f := NewFaultPlan(d)
	if _, err := f.Submit(0, Request{OpWrite, 0, PageSize}); err != nil {
		t.Fatal(err)
	}
	f.Fail()
	if !f.Failed() {
		t.Fatal("Failed() = false after Fail")
	}
	if _, err := f.Submit(0, Request{OpRead, 0, PageSize}); !errors.Is(err, ErrDeviceFailed) {
		t.Fatalf("submit on failed device err = %v", err)
	}
	if _, err := f.Flush(0); !errors.Is(err, ErrDeviceFailed) {
		t.Fatalf("flush on failed device err = %v", err)
	}
	f.Repair()
	if _, err := f.Submit(0, Request{OpRead, 0, PageSize}); err != nil {
		t.Fatalf("submit after repair err = %v", err)
	}
	if f.Capacity() != d.Capacity() || f.Content() != d.Content() || f.Stats() != d.Stats() {
		t.Fatal("faulty wrapper does not forward accessors")
	}
}
