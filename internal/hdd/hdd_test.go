package hdd

import (
	"testing"

	"srccache/internal/blockdev"
	"srccache/internal/vtime"
)

func newDisk(t *testing.T) *HDD {
	t.Helper()
	d, err := New(Config{Capacity: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{Capacity: 0}); err == nil {
		t.Fatal("accepted zero capacity")
	}
	if _, err := New(Config{Capacity: 4097}); err == nil {
		t.Fatal("accepted unaligned capacity")
	}
	// Half a turn at 7200 RPM, truncated to the nanosecond.
	if rotHalf != 4166666*vtime.Nanosecond {
		t.Fatalf("rotational half turn %v", rotHalf)
	}
}

func TestRandomReadCostsSeekPlusRotation(t *testing.T) {
	d := newDisk(t)
	// First access from head position 0 to the middle of the disk.
	done, err := d.Submit(0, blockdev.Request{Op: blockdev.OpRead, Off: 512 << 20, Len: blockdev.PageSize})
	if err != nil {
		t.Fatal(err)
	}
	// Must cost at least the rotational half turn (4.17 ms at 7200 RPM).
	if done < vtime.Time(4*vtime.Millisecond) {
		t.Fatalf("random read done at %v, expected seek+rotation cost", done)
	}
	if done > vtime.Time(25*vtime.Millisecond) {
		t.Fatalf("random read done at %v, unreasonably slow", done)
	}
}

func TestSequentialContinuationIsCheap(t *testing.T) {
	d := newDisk(t)
	done1, err := d.Submit(0, blockdev.Request{Op: blockdev.OpWrite, Off: 0, Len: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	// Continuing where the head stopped skips seek and rotation entirely.
	done2, err := d.Submit(done1, blockdev.Request{Op: blockdev.OpWrite, Off: 64 << 10, Len: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	seqCost := done2.Sub(done1)
	want := commandOverhead + vtime.TransferTime(64<<10, transferRate)
	if seqCost != want {
		t.Fatalf("sequential cost %v, want %v", seqCost, want)
	}
}

func TestSeekScalesWithDistance(t *testing.T) {
	near := newDisk(t)
	far := newDisk(t)
	doneNear, _ := near.Submit(0, blockdev.Request{Op: blockdev.OpRead, Off: 1 << 20, Len: blockdev.PageSize})
	doneFar, _ := far.Submit(0, blockdev.Request{Op: blockdev.OpRead, Off: 1000 << 20, Len: blockdev.PageSize})
	if doneFar <= doneNear {
		t.Fatalf("far seek (%v) not slower than near seek (%v)", doneFar, doneNear)
	}
}

func TestFIFOQueueing(t *testing.T) {
	d := newDisk(t)
	done1, _ := d.Submit(0, blockdev.Request{Op: blockdev.OpRead, Off: 0, Len: blockdev.PageSize})
	done2, _ := d.Submit(0, blockdev.Request{Op: blockdev.OpRead, Off: 500 << 20, Len: blockdev.PageSize})
	if done2 <= done1 {
		t.Fatal("second queued request finished before first")
	}
}

func TestFlushAndTrim(t *testing.T) {
	d := newDisk(t)
	done, _ := d.Submit(0, blockdev.Request{Op: blockdev.OpWrite, Off: 0, Len: blockdev.PageSize})
	fd, err := d.Flush(0)
	if err != nil {
		t.Fatal(err)
	}
	if fd != done {
		t.Fatalf("flush at %v, want drain at %v", fd, done)
	}
	if _, err := d.Submit(fd, blockdev.Request{Op: blockdev.OpTrim, Off: 0, Len: blockdev.PageSize}); err != nil {
		t.Fatal(err)
	}
	if d.Stats().TrimOps != 1 || d.Stats().Flushes != 1 {
		t.Fatalf("stats %+v", d.Stats())
	}
}
