package primary

import (
	"testing"

	"srccache/internal/blockdev"
	"srccache/internal/vtime"
)

// linkBandwidth is the 1 Gbps link's rate in bytes/s.
const linkBandwidth = 125e6

func newStorage(t *testing.T) *Storage {
	t.Helper()
	s, err := New(Config{DiskCapacity: 256 << 20})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestValidation(t *testing.T) {
	s := newStorage(t)
	if n := len(s.Array().Devices()); n != 8 {
		t.Fatalf("%d member disks, want 8", n)
	}
	// A 64 KiB chunk lands on one mirrored pair.
	if _, err := s.Submit(0, blockdev.Request{Op: blockdev.OpWrite, Off: 0, Len: 64 << 10}); err != nil {
		t.Fatal(err)
	}
	written := 0
	for _, d := range s.Array().Devices() {
		if d.Stats().WriteBytes > 0 {
			written++
		}
	}
	if written != 2 {
		t.Fatalf("a 64 KiB write reached %d disks, want one mirrored pair", written)
	}
	// RAID-10 of 8 disks: usable capacity is half the raw space.
	if s.Capacity() != 4*(256<<20) {
		t.Fatalf("capacity %d", s.Capacity())
	}
}

func TestWriteCrossesLinkThenDisks(t *testing.T) {
	s := newStorage(t)
	n := int64(1 << 20)
	done, err := s.Submit(0, blockdev.Request{Op: blockdev.OpWrite, Off: 0, Len: n})
	if err != nil {
		t.Fatal(err)
	}
	// At the very least the payload must cross the 125 MB/s link.
	linkTime := vtime.TransferTime(n, linkBandwidth)
	if done < vtime.Time(linkTime) {
		t.Fatalf("write done %v faster than link alone %v", done, linkTime)
	}
	if s.Link().SentBytes() != n {
		t.Fatalf("link sent %d", s.Link().SentBytes())
	}
	// Mirrored writes: the disks received 2x the payload.
	var diskBytes int64
	for _, d := range s.Array().Devices() {
		diskBytes += d.Stats().WriteBytes
	}
	if diskBytes != 2*n {
		t.Fatalf("disk write bytes %d, want %d", diskBytes, 2*n)
	}
}

func TestReadReturnsOverLink(t *testing.T) {
	s := newStorage(t)
	n := int64(1 << 20)
	done, err := s.Submit(0, blockdev.Request{Op: blockdev.OpRead, Off: 0, Len: n})
	if err != nil {
		t.Fatal(err)
	}
	if s.Link().RecvBytes() != n {
		t.Fatalf("link received %d", s.Link().RecvBytes())
	}
	if done <= 0 {
		t.Fatal("read completed instantly")
	}
}

func TestRandomSmallWritesAreSlow(t *testing.T) {
	s := newStorage(t)
	// 64 random 4K writes spread across the volume: seek-bound, so the
	// achieved rate must be far below the link rate.
	var at vtime.Time
	var err error
	n := int64(64)
	stride := s.Capacity() / n
	stride -= stride % blockdev.PageSize
	for i := int64(0); i < n; i++ {
		at, err = s.Submit(at, blockdev.Request{Op: blockdev.OpWrite, Off: i * stride, Len: blockdev.PageSize})
		if err != nil {
			t.Fatal(err)
		}
	}
	rate := vtime.Rate(n*blockdev.PageSize, at.Sub(0))
	if rate > 30e6 {
		t.Fatalf("random 4K write rate %.1f MB/s, expected seek-bound (<30 MB/s)", rate/1e6)
	}
}

func TestSequentialLargeWritesAreLinkBound(t *testing.T) {
	s := newStorage(t)
	var at vtime.Time
	var err error
	total := int64(64 << 20)
	chunk := int64(1 << 20)
	for off := int64(0); off < total; off += chunk {
		at, err = s.Submit(at, blockdev.Request{Op: blockdev.OpWrite, Off: off, Len: chunk})
		if err != nil {
			t.Fatal(err)
		}
	}
	rate := vtime.Rate(total, at.Sub(0))
	bw := linkBandwidth
	if rate > bw*1.05 {
		t.Fatalf("sequential rate %.1f MB/s exceeds link %.1f MB/s", rate/1e6, bw/1e6)
	}
	if rate < bw*0.5 {
		t.Fatalf("sequential rate %.1f MB/s far below link %.1f MB/s", rate/1e6, bw/1e6)
	}
}

func TestFlushForwards(t *testing.T) {
	s := newStorage(t)
	if _, err := s.Submit(0, blockdev.Request{Op: blockdev.OpWrite, Off: 0, Len: blockdev.PageSize}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Flush(0); err != nil {
		t.Fatal(err)
	}
	if s.Stats().Flushes != 1 {
		t.Fatalf("stats %+v", s.Stats())
	}
}

func TestTrimForwardsToArray(t *testing.T) {
	s := newStorage(t)
	done, err := s.Submit(0, blockdev.Request{Op: blockdev.OpTrim, Off: 0, Len: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if done <= 0 {
		t.Fatal("trim completed instantly despite the link RTT")
	}
	var trims int64
	for _, d := range s.Array().Devices() {
		trims += d.Stats().TrimOps
	}
	if trims == 0 {
		t.Fatal("trim not forwarded to disks")
	}
}

func TestRequestValidation(t *testing.T) {
	s := newStorage(t)
	if _, err := s.Submit(0, blockdev.Request{Op: blockdev.OpRead, Off: s.Capacity(), Len: blockdev.PageSize}); err == nil {
		t.Fatal("out-of-range read accepted")
	}
	if _, err := s.Submit(0, blockdev.Request{Op: blockdev.OpWrite, Off: 1, Len: blockdev.PageSize}); err == nil {
		t.Fatal("unaligned write accepted")
	}
}

func TestContentIsDurableOracle(t *testing.T) {
	s := newStorage(t)
	tag := blockdev.DataTag(9, 2)
	if err := s.Content().WriteTag(9, tag); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Flush(0); err != nil {
		t.Fatal(err)
	}
	s.Content().Crash()
	got, err := s.Content().ReadTag(9)
	if err != nil {
		t.Fatal(err)
	}
	if got != tag {
		t.Fatal("flushed primary content lost on crash")
	}
}
